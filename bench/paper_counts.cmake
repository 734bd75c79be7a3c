# The paper_counts test: runs bench_paper and compares its output with the
# committed BENCH_paper.json. On a mismatch it names every row id and field
# that differ, and every row that is missing or new.
#
#   cmake -DBENCH=<path to bench_paper> -DEXPECTED=<BENCH_paper.json>
#         -P bench/paper_counts.cmake
#
# After a change that moves a count on purpose, regenerate the file with
# `./build/bench_paper > BENCH_paper.json` and give the reason in CHANGES.md.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_paper exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(actual STREQUAL expected)
  string(JSON n LENGTH "${expected}" rows)
  message(STATUS "paper_counts: all ${n} rows match")
  return()
endif()

# Index each document's rows by id: <prefix>_ids holds the ids in order,
# <prefix>_row_<id> the row's JSON text.
function(index_rows doc prefix)
  string(JSON n LENGTH "${doc}" rows)
  set(ids "")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      string(JSON row GET "${doc}" rows ${i})
      string(JSON id GET "${row}" id)
      list(APPEND ids "${id}")
      set(${prefix}_row_${id} "${row}" PARENT_SCOPE)
    endforeach()
  endif()
  set(${prefix}_ids "${ids}" PARENT_SCOPE)
endfunction()

index_rows("${expected}" want)
index_rows("${actual}" got)

set(report "")
foreach(id IN LISTS want_ids)
  if(NOT DEFINED got_row_${id})
    string(APPEND report "\n  row ${id}: missing from the live run")
    continue()
  endif()
  set(w "${want_row_${id}}")
  set(g "${got_row_${id}}")
  string(JSON nfields LENGTH "${w}")
  math(EXPR last "${nfields} - 1")
  foreach(i RANGE ${last})
    string(JSON field MEMBER "${w}" ${i})
    string(JSON wv GET "${w}" "${field}")
    string(JSON gv ERROR_VARIABLE err GET "${g}" "${field}")
    if(err)
      string(APPEND report "\n  row ${id} field ${field}: missing")
    elseif(NOT wv STREQUAL gv)
      string(APPEND report
             "\n  row ${id} field ${field}: committed ${wv}, live ${gv}")
    endif()
  endforeach()
endforeach()
foreach(id IN LISTS got_ids)
  if(NOT DEFINED want_row_${id})
    string(APPEND report "\n  row ${id}: not in ${EXPECTED}")
  endif()
endforeach()
if(report STREQUAL "")
  set(report "\n  every field matches; the row order or layout differs")
endif()
message(FATAL_ERROR "bench_paper output differs from ${EXPECTED}:${report}\n"
        "Regenerate with `bench_paper > BENCH_paper.json` only if the change "
        "is meant to move these counts, and say why in CHANGES.md.")
