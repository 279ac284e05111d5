# Runs BENCH with --out=OUT and byte-compares OUT with GOLDEN.
#   cmake -DBENCH=<binary> -DOUT=<file> -DGOLDEN=<file> -P compare_output.cmake
execute_process(COMMAND ${BENCH} --out=${OUT}
                RESULT_VARIABLE bench_rc OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
