# Run one griffin CLI invocation and check how it ended:
#
#   cmake -DGRIFFIN=EXE -DSTATUS=N [-DSTDOUT=REGEX] [-DSTDERR=REGEX]
#         [-DLINES=N] -P expect.cmake -- ARGS...
#
# STATUS is the exit code the invocation must return (an abort or a
# signal never equals a number). STDOUT / STDERR are regexes the
# stream must match ("^$" demands an empty stream); LINES is the exact
# number of stdout lines.

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
