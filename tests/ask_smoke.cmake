# End-to-end smoke of the `bdi ask` verb, run by ctest as AskSmoke (see
# tests/CMakeLists.txt): generate a tiny corpus, ask one attribute of an
# entity named in it and check the answer line plus its support lines,
# then ask about an entity that shares no token with the corpus and check
# it gets no answer.
#
#   cmake -DBDI_CLI=<bdi binary> -DWORK_DIR=<scratch dir> -P ask_smoke.cmake
if(NOT DEFINED BDI_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DBDI_CLI=<bdi> -DWORK_DIR=<dir> -P ask_smoke.cmake")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(corpus ${WORK_DIR}/corpus.csv)
execute_process(
    COMMAND ${BDI_CLI} generate --out ${corpus}
            --entities 40 --sources 5 --seed 11
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi generate failed (${rc})")
endif()

# The corpus is long-form CSV (source,record,attribute,value); take the
# value of the first `name` row as the entity keywords.
file(STRINGS ${corpus} name_rows REGEX "^[^,]*,[^,]*,name,")
list(GET name_rows 0 first_name_row)
string(REGEX REPLACE "^[^,]*,[^,]*,name," "" entity "${first_name_row}")

execute_process(
    COMMAND ${BDI_CLI} ask --in ${corpus} --attribute brand
            --entity "${entity}"
    OUTPUT_VARIABLE answer
    ERROR_VARIABLE errors
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi ask exited ${rc}: ${errors}")
endif()
# `<attr> of "<entity>" = <value>  (confidence c)`, then one support line
# per claim that agrees with or dissents from the fused value.
if(NOT answer MATCHES "brand of \"[^\"\n]+\" = [^\n]+\\(confidence [0-9.]+\\)")
  message(FATAL_ERROR
      "ask for '${entity}' printed no answer line:\n${answer}")
endif()
if(NOT answer MATCHES "\n  [^\n]+ agrees")
  message(FATAL_ERROR "ask printed no agreeing support line:\n${answer}")
endif()

execute_process(
    COMMAND ${BDI_CLI} ask --in ${corpus} --attribute brand
            --entity "zzqx nonsense"
    OUTPUT_VARIABLE answer
    ERROR_VARIABLE errors
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi ask exited ${rc}: ${errors}")
endif()
if(NOT answer STREQUAL "no answer\n")
  message(FATAL_ERROR "nonsense entity was answered:\n${answer}")
endif()
message(STATUS "ask smoke ok")
