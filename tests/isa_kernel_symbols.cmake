# Fails when an AVX2 or AVX-512 kernel object defines a weak symbol.
#
# The kernel TUs linalg/{dot,gemm}_kernel_{avx2,avx512}.cc and
# topk/select_kernel_{avx2,avx512}.cc are compiled with their own ISA
# flags.  A weak definition (nm type W or V) in one of them is an inline
# function or template instance with external linkage.  The linker keeps
# one copy of it for the whole binary, possibly the AVX one, and portable
# code that calls it then runs AVX instructions.  Such helpers need
# internal linkage.  Release builds usually inline them, so a Debug build
# is where a leak shows.
#
# Inputs: -DNM=<nm> -DOBJECTS=<object>|<object>|...  (every object of
# the libraries to check; only the *_avx2 and *_avx512 ones are read)

foreach(var NM OBJECTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "isa_kernel_symbols.cmake: missing -D${var}=")
  endif()
endforeach()

string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
set(leaks "")
foreach(object IN LISTS objects)
  get_filename_component(name "${object}" NAME)
  if(NOT name MATCHES "_avx(2|512)\\.")
    continue()
  endif()
  execute_process(
    COMMAND "${NM}" -C "${object}"
    OUTPUT_VARIABLE symbols
    RESULT_VARIABLE nm_result)
  if(NOT nm_result EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}")
  endif()
  math(EXPR checked "${checked} + 1")
  string(REGEX MATCHALL "[^\n]* [VW] [^\n]*" weak "${symbols}")
  foreach(line IN LISTS weak)
    string(APPEND leaks "\n  ${name}: ${line}")
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no *_avx2 or *_avx512 object among: ${OBJECTS}")
endif()
if(leaks)
  message(FATAL_ERROR
    "weak definitions in ISA-flagged kernel objects (give them internal "
    "linkage):${leaks}")
endif()
message(STATUS "${checked} ISA-flagged kernel objects define no weak symbol")
