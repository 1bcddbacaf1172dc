"""Opcode tracing of grpfield calls, shared by the tests."""

import os
import sys
from pathlib import Path

import grpfield
from grpfield.arith import KERNEL_FILENAME

_PACKAGE_DIR = str(Path(grpfield.__file__).resolve().parent) + os.sep


def opcode_trace(op, args):
    """(code object, offset) of every opcode that op(*args) executes in
    a grpfield frame.  Frames are picked by filename: the package's
    files, or KERNEL_FILENAME, under which the generated kernel module is
    compiled; a kernel's code object keeps that filename, so a kernel
    and the package function of the same name stay apart.  A field's
    first operation also traces the build of its kernels."""
    seen = []

    def local(frame, event, arg):
        if event == "opcode":
            seen.append((frame.f_code, frame.f_lasti))
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename == KERNEL_FILENAME or filename.startswith(_PACKAGE_DIR):
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(on_call)
    try:
        op(*args)
    finally:
        sys.settrace(None)
    return seen
