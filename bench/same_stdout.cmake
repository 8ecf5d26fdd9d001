# Runs one command twice and fails unless both runs exit 0 and print
# byte-identical stdout. Both outputs are kept for a diff on failure.
#
#   cmake -DCOMMAND=<binary> [-DARGS="<args>"] -DOUT_PREFIX=<path>
#         -P same_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(run 1 2)
  execute_process(COMMAND ${COMMAND} ${args}
                  OUTPUT_VARIABLE out${run}
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${COMMAND} ${ARGS} exited ${status}")
  endif()
  file(WRITE "${OUT_PREFIX}${run}.txt" "${out${run}}")
endforeach()
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "two runs of ${COMMAND} ${ARGS} printed different "
          "stdout: diff ${OUT_PREFIX}1.txt ${OUT_PREFIX}2.txt")
endif()
