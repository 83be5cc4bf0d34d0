# Run one tool invocation and require an exact exit code (WILL_FAIL only
# tells "non-zero" apart from zero, so it cannot tell a usage error from a
# crash).
#
#   cmake -DTOOL=<path> "-DARGS=<space-separated args>" -DEXPECT=<code>
#         [-DFRESH_DIR=<dir>] -P expect_exit.cmake
#
# FRESH_DIR, when given, is emptied (and created) before the run, so files
# the tool writes there cannot be confused with a previous run's.
if(DEFINED FRESH_DIR)
  file(REMOVE_RECURSE "${FRESH_DIR}")
  file(MAKE_DIRECTORY "${FRESH_DIR}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE code)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${code}, expected ${EXPECT}")
endif()
