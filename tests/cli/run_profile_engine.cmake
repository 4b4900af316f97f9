# Native profile-split check (invoked by ctest via `cmake -P`): run
# `inltc profile --engine native --profile-json` against an empty
# compile cache and check that the report splits its time into the
# out-of-process compile and the kernel run. Without a C compiler the
# engine falls back to the VM (fallbacks > 0) and there is no split
# to check.
#
# Variables (passed with -D):
#   INLTC    path to the inltc binary
#   LOOP     input program
#   CACHE    scratch directory for the compile cache (emptied first)
foreach(v INLTC LOOP CACHE)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_profile_engine.cmake: missing -D${v}")
  endif()
endforeach()

file(REMOVE_RECURSE ${CACHE})
file(MAKE_DIRECTORY ${CACHE})
set(ENV{INLTC_CACHE_DIR} ${CACHE})
execute_process(
  COMMAND ${INLTC} profile ${LOOP} --engine native --n 16 --repeat 2
    --profile-json
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inltc profile --engine native: exit ${rc}\nstderr:\n${err}")
endif()

# The integer value of "key" in the JSON report.
function(report_field key var)
  if(NOT out MATCHES "\"${key}\":([0-9]+)")
    message(FATAL_ERROR "no \"${key}\" in the report:\n${out}")
  endif()
  set(${var} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

report_field(fallbacks fallbacks)
if(fallbacks GREATER 0)
  message(STATUS "native engine unavailable (${fallbacks} fallbacks): split not checked")
  return()
endif()
report_field(compiles compiles)
report_field(compile_ns compile_ns)
report_field(run_ns run_ns)
if(NOT run_ns GREATER 0)
  message(FATAL_ERROR "native.run_ns is 0:\n${out}")
endif()
if(compiles GREATER 0 AND NOT compile_ns GREATER 0)
  message(FATAL_ERROR "${compiles} compiles but compile_ns is 0:\n${out}")
endif()
