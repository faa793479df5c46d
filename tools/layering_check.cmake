# Fails when a file under src/array or src/mdraid includes a raizn/
# header: the shared array core and the mdraid baseline sit below the
# RAIZN engine and must build without it.
#
#   cmake -DSRC_DIR=src -P tools/layering_check.cmake
if(NOT DEFINED SRC_DIR)
    message(FATAL_ERROR "usage: cmake -DSRC_DIR=<src> -P layering_check.cmake")
endif()
file(GLOB_RECURSE files
     ${SRC_DIR}/array/*.h ${SRC_DIR}/array/*.cc
     ${SRC_DIR}/mdraid/*.h ${SRC_DIR}/mdraid/*.cc)
if(NOT files)
    message(FATAL_ERROR "no sources found under ${SRC_DIR}/array, ${SRC_DIR}/mdraid")
endif()
set(bad "")
foreach(f ${files})
    file(STRINGS ${f} hits REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]raizn/")
    foreach(h ${hits})
        string(APPEND bad "\n  ${f}: ${h}")
    endforeach()
endforeach()
if(bad)
    message(FATAL_ERROR "src/array and src/mdraid must not include raizn/ headers:${bad}")
endif()
list(LENGTH files n)
message(STATUS "layering ok: ${n} files under src/array and src/mdraid")
