# kanon_gendata -> kanon_cli round trip: every generated (CSV, spec) pair
# must load in kanon_cli, which infers the schema from the CSV, and the
# anonymized table must verify. The cases are generator draws that leave
# some labels of the generator's scheme unused.
#
#   cmake -DGENDATA=<kanon_gendata> -DCLI=<kanon_cli> -DWORK=<dir>
#         -P gendata_roundtrip.cmake
file(MAKE_DIRECTORY "${WORK}")
foreach(case "art;200;2" "adult;500;7" "adult;1000;7" "cmc;500;7")
  list(GET case 0 dataset)
  list(GET case 1 rows)
  list(GET case 2 seed)
  set(stem "${WORK}/${dataset}_${rows}_${seed}")
  execute_process(
    COMMAND "${GENDATA}" --dataset=${dataset} --rows=${rows} --seed=${seed}
            --output=${stem}.csv --spec-out=${stem}.spec
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "kanon_gendata ${case} failed (${rc}): ${err}")
  endif()
  execute_process(
    COMMAND "${CLI}" --input=${stem}.csv --spec=${stem}.spec --k=5
            --output=${stem}.out.csv
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "kanon_cli rejected ${case} (${rc}): ${err}")
  endif()
  message(STATUS "${dataset} ${rows} rows, seed ${seed}: ${err}")
endforeach()
