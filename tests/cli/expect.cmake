# Run one griffin CLI invocation and check how it ended:
#
#   cmake -DGRIFFIN=EXE -DSTATUS=N [-DSTDOUT=REGEX] [-DSTDERR=REGEX]
#         [-DLINES=N] [-DGOLDEN=FILE [-DOUTPUT=FILE]]
#         [-DSHA256=FILE -DCASE=NAME -DOUTDIR=DIR]
#         -P expect.cmake -- ARGS...
#
# STATUS is the exit code the invocation must return (an abort or a
# signal never equals a number). STDOUT / STDERR are regexes the
# stream must match ("^$" demands an empty stream); LINES is the exact
# number of stdout lines. GOLDEN is a file stdout must equal byte for
# byte, or, with OUTPUT, the file the invocation writes there must.
#
# SHA256 is a list of "<sha256>  CASE/NAME" lines (sha256sum's format)
# naming what the invocation must produce. OUTDIR is emptied before
# the run, and NAME is one of
#   stdout               the invocation's stdout;
#   FILE                 OUTDIR/FILE, byte for byte;
#   FILE#host_profile    the deterministic half of report OUTDIR/FILE's
#                        host profiles: each run's dispatch count and
#                        per-scope counts, one "key=value" line each.
# Every line of CASE is checked, and each file that differs is named.

set(args "")
set(afterDashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(afterDashes)
        list(APPEND args "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(afterDashes TRUE)
    endif()
endforeach()

if(DEFINED OUTPUT)
    file(REMOVE "${OUTPUT}")
endif()
if(DEFINED OUTDIR)
    file(REMOVE_RECURSE "${OUTDIR}")
    file(MAKE_DIRECTORY "${OUTDIR}")
endif()
execute_process(COMMAND "${GRIFFIN}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

list(JOIN args " " cmdline)
set(what "griffin ${cmdline}\n--- stdout:\n${out}--- stderr:\n${err}")
if(NOT status STREQUAL STATUS)
    message(FATAL_ERROR "exit status '${status}', want ${STATUS}: ${what}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
    message(FATAL_ERROR "stdout does not match '${STDOUT}': ${what}")
endif()
if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "stderr does not match '${STDERR}': ${what}")
endif()
if(DEFINED LINES)
    string(REGEX MATCHALL "\n" newlines "${out}")
    list(LENGTH newlines count)
    if(NOT count EQUAL LINES)
        message(FATAL_ERROR "${count} stdout lines, want ${LINES}: ${what}")
    endif()
endif()
if(DEFINED GOLDEN)
    set(actual "${out}")
    if(DEFINED OUTPUT)
        file(READ "${OUTPUT}" actual)
    endif()
    file(READ "${GOLDEN}" want)
    if(NOT actual STREQUAL want)
        message(FATAL_ERROR "output differs from ${GOLDEN}: ${what}")
    endif()
endif()
if(DEFINED SHA256)
    file(STRINGS "${SHA256}" entries REGEX "^[0-9a-f]+  ${CASE}/")
    if(NOT entries)
        message(FATAL_ERROR "${SHA256} has no ${CASE}/ lines")
    endif()
    set(differ "")
    foreach(entry ${entries})
        string(REGEX MATCH "^([0-9a-f]+)  ${CASE}/(.+)$" _ "${entry}")
        set(want ${CMAKE_MATCH_1})
        set(name ${CMAKE_MATCH_2})
        if(name STREQUAL "stdout")
            string(SHA256 got "${out}")
        elseif(name MATCHES "^(.+)#host_profile$")
            file(READ "${OUTDIR}/${CMAKE_MATCH_1}" doc)
            set(text "")
            string(JSON runs LENGTH "${doc}" runs)
            math(EXPR last "${runs} - 1")
            foreach(run RANGE ${last})
                string(JSON profile GET "${doc}" runs ${run} host_profile)
                string(JSON events GET "${profile}" events)
                string(APPEND text "events=${events}\n")
                string(JSON counts GET "${profile}" counts)
                string(JSON sites LENGTH "${counts}")
                math(EXPR lastSite "${sites} - 1")
                foreach(site RANGE ${lastSite})
                    string(JSON key MEMBER "${counts}" ${site})
                    string(JSON count GET "${counts}" "${key}")
                    string(APPEND text "${key}=${count}\n")
                endforeach()
            endforeach()
            string(SHA256 got "${text}")
        elseif(EXISTS "${OUTDIR}/${name}")
            file(SHA256 "${OUTDIR}/${name}" got)
        else()
            set(got "(missing)")
        endif()
        if(NOT got STREQUAL want)
            string(APPEND differ "\n  ${CASE}/${name}: ${got}, want ${want}")
        endif()
    endforeach()
    if(differ)
        message(FATAL_ERROR "output differs from ${SHA256}:${differ}\n"
                            "${what}")
    endif()
endif()
