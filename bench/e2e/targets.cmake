# Targets of the end-to-end harness; included (deferred) by
# register.cmake once the project's libraries and tools exist.
add_executable(ppm_e2e
    ${PPM_E2E_DIR}/main.cc
    ${PPM_E2E_DIR}/common.cc
    ${PPM_E2E_DIR}/build_workloads.cc
    ${PPM_E2E_DIR}/predict_workloads.cc
)
target_link_libraries(ppm_e2e PRIVATE ppm_serve)
target_compile_definitions(ppm_e2e PRIVATE
    PPM_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PPM_E2E_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    PPM_E2E_SOURCE_DIR="${PPM_E2E_DIR}"
    PPM_E2E_SERVE_BIN="$<TARGET_FILE:ppm_serve_cli>"
    PPM_E2E_PUBLISH_BIN="$<TARGET_FILE:ppm_publish_cli>")
# The harness spawns these; building it builds them.
add_dependencies(ppm_e2e ppm_serve_cli ppm_publish_cli)

# ctest -L e2e: every workload in both modes at toy scale, plus a
# server killed mid-phase.
add_test(NAME e2e_smoke COMMAND ppm_e2e --smoke)
set_tests_properties(e2e_smoke PROPERTIES LABELS e2e TIMEOUT 120)
