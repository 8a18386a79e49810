# Build file of the benchmark binary. run.py configures the repository's
# own top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_smartfluidnet_INCLUDE=<this file>
# so the library targets compile with exactly the project's flags and
# options, and builds only the sfn_perfbench target (and the libraries it
# links); tests, benches and examples are configured but never built.

add_executable(sfn_perfbench
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/ladder.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/probes.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/workloads.cpp
)
# This file runs right after project(), before the top level sets its
# language standard and warning flags, so the target states its own.
set_target_properties(sfn_perfbench PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF)
target_compile_options(sfn_perfbench PRIVATE -Wall -Wextra)
target_include_directories(sfn_perfbench PRIVATE ${CMAKE_CURRENT_LIST_DIR}/src)
# Resolved when the top level has defined the library targets.
target_link_libraries(sfn_perfbench PRIVATE sfn_serve sfn_core)
