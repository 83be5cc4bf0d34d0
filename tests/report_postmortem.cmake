# Run asareport on the one post-mortem bundle asachaos wrote into DIR.
# The bundle is named after the violating seed, which moves whenever the
# runtime's event timeline does, so it is found by pattern, not by name.
#
#   cmake -DASAREPORT=<path> -DDIR=<dir> "-DARGS=<extra args>"
#         -P report_postmortem.cmake
file(GLOB bundles "${DIR}/postmortem-seed*.json")
list(LENGTH bundles count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR
          "expected one post-mortem bundle in ${DIR}, found ${count}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${ASAREPORT}" --metrics ${bundles} ${args}
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "asareport --metrics ${bundles} ${ARGS}: exit ${code}")
endif()
