# Adds bench/e2e to the repository's CMake tree without editing it.
# Configure the root with
#   cmake -S . -B build -DCMAKE_PROJECT_sievestore_INCLUDE=<abs>/bench/e2e/attach.cmake
# CMake includes this file right after the root's project() call. The
# deferred include runs CMakeLists.txt here in the root directory's scope
# once the root CMakeLists.txt has finished, when ss_bench_common and the
# root's compile options exist. (A deferred call may not add a
# subdirectory.)
set(SIEVE_BENCH_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${SIEVE_BENCH_E2E_DIR}/CMakeLists.txt")
