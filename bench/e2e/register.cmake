# Registers the end-to-end harness without touching the project's own
# CMake files:
#
#   cmake -S . -B build-e2e -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_ppm_INCLUDE=$PWD/bench/e2e/register.cmake
#
# This file runs inside project(ppm), before any library target exists,
# so the targets are deferred to the end of the top-level directory.
# The directory is captured here: a deferred call runs in the top-level
# scope, where CMAKE_CURRENT_LIST_DIR names the project root. (A
# deferred add_subdirectory is rejected, hence include().)
set(PPM_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
    CALL include ${PPM_E2E_DIR}/targets.cmake)
