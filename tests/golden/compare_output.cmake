# Runs BENCH and byte-compares its output with GOLDEN: the file it
# writes with FLAG=OUT when OUT is given (FLAG defaults to --out),
# otherwise its stdout (kept as <golden name>.actual in the working
# directory on a mismatch).
#   cmake -DBENCH=<binary> [-DOUT=<file> [-DFLAG=<flag>]] -DGOLDEN=<file>
#         -P compare_output.cmake
if(NOT DEFINED FLAG)
  set(FLAG --out)
endif()
if(DEFINED OUT)
  execute_process(COMMAND ${BENCH} ${FLAG}=${OUT}
                  RESULT_VARIABLE bench_rc OUTPUT_QUIET)
else()
  execute_process(COMMAND ${BENCH}
                  RESULT_VARIABLE bench_rc OUTPUT_VARIABLE bench_stdout)
  get_filename_component(golden_name ${GOLDEN} NAME)
  set(OUT ${CMAKE_CURRENT_BINARY_DIR}/${golden_name}.actual)
  file(WRITE ${OUT} "${bench_stdout}")
endif()
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
