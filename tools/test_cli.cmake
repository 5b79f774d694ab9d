# CTest script: exercises the cnaudit CLI end to end
# (simulate -> export -> audit/ppe/neutrality/darkfee on the export).
if(NOT DEFINED CNAUDIT)
  message(FATAL_ERROR "pass -DCNAUDIT=<path>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/cnaudit_cli_test")
file(REMOVE_RECURSE "${workdir}")

execute_process(
  COMMAND "${CNAUDIT}" simulate --dataset A --seed 11 --scale 0.1 --out "${workdir}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (${rc}): ${out}${err}")
endif()

foreach(subcommand audit report ppe neutrality darkfee)
  execute_process(
    COMMAND "${CNAUDIT}" ${subcommand} --data "${workdir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${subcommand} failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "loaded" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${subcommand} did not load the export: ${out}")
  endif()
endforeach()

# Stage selection: a deselected stage must be visibly [SKIPPED], and an
# unknown stage name must be rejected.
execute_process(
  COMMAND "${CNAUDIT}" report --data "${workdir}" --stages norm-stats,darkfee
          --timings on
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report --stages failed (${rc}): ${out}${err}")
endif()
string(FIND "${out}" "[SKIPPED]" found)
if(found EQUAL -1)
  message(FATAL_ERROR "report --stages printed no [SKIPPED] marker: ${out}")
endif()
string(FIND "${out}" "stage timings" found)
if(found EQUAL -1)
  message(FATAL_ERROR "report --timings on printed no stage-timings footer: ${out}")
endif()
execute_process(
  COMMAND "${CNAUDIT}" report --data "${workdir}" --stages frobnicate
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown --stages name unexpectedly succeeded")
endif()
string(FIND "${err}" "unknown stage" found)
if(found EQUAL -1)
  message(FATAL_ERROR "unknown stage error missing: ${err}")
endif()

# Unknown command must fail with usage.
execute_process(COMMAND "${CNAUDIT}" frobnicate RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command unexpectedly succeeded")
endif()

# Every subcommand rejects an option it does not read: the retired
# simulate --threads and report --engine, a misspelt report option, and
# an option of another subcommand must each exit 2 naming the key,
# before any work is done.
function(expect_unknown_option key)
  execute_process(
    COMMAND "${CNAUDIT}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, want 2: ${out}${err}")
  endif()
  string(FIND "${err}" "unknown option --${key}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "'${ARGN}' did not name --${key}: ${err}")
  endif()
endfunction()
expect_unknown_option(threads simulate --dataset A --seed 11 --scale 0.1
                      --threads 0 --out "${workdir}_threads")
if(EXISTS "${workdir}_threads")
  message(FATAL_ERROR "simulate --threads wrote an export before failing")
endif()
expect_unknown_option(engine report --data "${workdir}" --engine=legacy)
expect_unknown_option(min-coverag report --data "${workdir}" --min-coverag 0.5)
expect_unknown_option(policy simulate --dataset A --policy lenient
                      --out "${workdir}_policy")

# A malformed number is refused whole (exit 2, naming the option) before
# any work: "abc" used to run seed 0, "1e" alpha 1.
function(expect_bad_number key)
  execute_process(
    COMMAND "${CNAUDIT}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, want 2: ${out}${err}")
  endif()
  string(FIND "${err}" "--${key} '" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "'${ARGN}' did not name --${key}: ${err}")
  endif()
endfunction()
expect_bad_number(seed simulate --dataset A --seed abc --scale 0.1
                  --out "${workdir}_badseed")
if(EXISTS "${workdir}_badseed")
  message(FATAL_ERROR "simulate --seed abc wrote an export before failing")
endif()
expect_bad_number(alpha report --data "${workdir}" --alpha 1e)

# CNB1 conversion round trip: CSV -> cnb -> CSV, with the audit reading
# identical report bytes from all three sources via the unified --input.
# The "loaded ... from <path>" banner names the input path, so it is
# stripped before the byte comparison; everything below it must match.
function(strip_loaded_banner report out_var)
  string(REGEX REPLACE "^loaded [^\n]*\n" "" report "${report}")
  set("${out_var}" "${report}" PARENT_SCOPE)
endfunction()
if(DEFINED CNCONVERT)
  set(cnb "${workdir}.cnb")
  set(csv2 "${workdir}_from_cnb")
  file(REMOVE "${cnb}")
  file(REMOVE_RECURSE "${csv2}")
  execute_process(
    COMMAND "${CNCONVERT}" --input "${workdir}" --output "${cnb}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cnconvert csv->cnb failed (${rc}): ${out}${err}")
  endif()
  execute_process(
    COMMAND "${CNAUDIT}" report --input "${workdir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE csv_report ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report --input csv failed (${rc}): ${err}")
  endif()
  strip_loaded_banner("${csv_report}" csv_report)
  execute_process(
    COMMAND "${CNAUDIT}" report --input "${cnb}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE cnb_report ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report --input cnb failed (${rc}): ${err}")
  endif()
  strip_loaded_banner("${cnb_report}" cnb_report)
  if(NOT cnb_report STREQUAL csv_report)
    message(FATAL_ERROR "CNB1 report diverged from the CSV report:\n--- csv ---\n${csv_report}\n--- cnb ---\n${cnb_report}")
  endif()
  execute_process(
    COMMAND "${CNCONVERT}" --input "${cnb}" --output "${csv2}" --format csv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cnconvert cnb->csv failed (${rc}): ${out}${err}")
  endif()
  execute_process(
    COMMAND "${CNAUDIT}" report --input "${csv2}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE csv2_report ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report --input converted-csv failed (${rc}): ${err}")
  endif()
  strip_loaded_banner("${csv2_report}" csv2_report)
  if(NOT csv2_report STREQUAL csv_report)
    message(FATAL_ERROR "round-tripped CSV report diverged from the original")
  endif()
  file(REMOVE "${cnb}")
  file(REMOVE_RECURSE "${csv2}")
endif()

# Fault-injection round trip: corrupt the export, then lenient import
# must still produce a report while strict import must refuse it.
if(DEFINED CNINJECT)
  set(dirty "${workdir}_dirty")
  file(REMOVE_RECURSE "${dirty}")
  execute_process(
    COMMAND "${CNINJECT}" --in "${workdir}" --out "${dirty}"
            --seed 7 --rate 0.02 --kinds corrupt --gaps 1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cninject failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "corrupt-field" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "cninject injected no corrupt-field faults: ${out}")
  endif()

  execute_process(
    COMMAND "${CNAUDIT}" report --data "${dirty}" --policy lenient
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lenient report on dirty data failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "data quality" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "lenient report printed no data-quality line: ${out}")
  endif()

  execute_process(
    COMMAND "${CNAUDIT}" report --data "${dirty}" --policy strict
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "strict report on dirty data unexpectedly succeeded")
  endif()
  string(FIND "${err}" "first:" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "strict failure did not pinpoint a defect: ${err}")
  endif()
  file(REMOVE_RECURSE "${dirty}")
endif()

file(REMOVE_RECURSE "${workdir}")
