# Build file of the Ψ benchmark. It hooks into the repository's own CMake
# build, so the `psi` library is compiled with exactly the repository's
# flags, options and defaults. psibench/run.py configures it as
#
#   cmake -S . -B .bench_build/psibench -DPSI_BUILD_BENCHES=OFF \
#         -DPSI_BUILD_EXAMPLES=OFF \
#         -DCMAKE_PROJECT_psi_INCLUDE=$PWD/psibench/psibench.cmake
#   cmake --build .bench_build/psibench --target psibench psibench_selftest
#
# CMake includes this file right after the repository's project(psi) call;
# the targets are added once the top-level build file has been read.

set(PSIBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(psibench_add_targets)
  add_library(psibench_harness STATIC ${PSIBENCH_DIR}/src/harness.cpp
                                      ${PSIBENCH_DIR}/src/trace.cpp)
  target_include_directories(psibench_harness PUBLIC ${PSIBENCH_DIR}/src)
  target_link_libraries(psibench_harness PUBLIC psi)

  add_executable(psibench ${PSIBENCH_DIR}/src/main.cpp)
  target_link_libraries(psibench PRIVATE psibench_harness)
  target_compile_definitions(psibench
                             PRIVATE PSIBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

  add_executable(psibench_selftest ${PSIBENCH_DIR}/tests/selftest.cpp)
  target_link_libraries(psibench_selftest PRIVATE psibench_harness)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL psibench_add_targets)
