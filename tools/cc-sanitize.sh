#!/bin/sh
# A C compiler wrapper for building the native kernel under
# AddressSanitizer and UndefinedBehaviorSanitizer; undefined behaviour
# aborts instead of printing and carrying on.  Point $CC at this script.
# The kernel is loaded into the Python interpreter, so the interpreter
# needs gcc's sanitizer runtimes preloaded:
#
#   export CC="$PWD/tools/cc-sanitize.sh"
#   export LD_PRELOAD="$(gcc -print-file-name=libasan.so):$(gcc -print-file-name=libubsan.so)"
#   export ASAN_OPTIONS=detect_leaks=0 TMPDIR="$(mktemp -d)"
#   PYTHONPATH=src python -m pytest tests/test_lane_ops.py
#
# The kernel cache is keyed on the compiler path, so sanitized and plain
# objects never mix; a private TMPDIR keeps them apart on disk as well.
exec gcc -fsanitize=address,undefined -fno-sanitize-recover=undefined "$@"
