# kanon_cli must reject any k < 1 as a usage error (exit 2) with one
# message, in memory and in sharded mode, before reading the input.
#
#   cmake -DCLI=<kanon_cli> -DTESTDATA=<tests/testdata> -DWORK=<dir>
#         -P cli_bad_k.cmake
foreach(k "-1" "0" "-18446744073709551615")
  foreach(mode "" "--shards=2")
    execute_process(
      COMMAND "${CLI}" --input=${TESTDATA}/demo.csv
              --spec=${TESTDATA}/demo.spec --k=${k} ${mode}
              --work-dir=${WORK} --output=${WORK}/out.csv
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "k must be a positive integer")
      message(FATAL_ERROR "--k=${k} ${mode}: exit ${rc}, stderr: ${err}")
    endif()
  endforeach()
endforeach()
