#!/usr/bin/env python3
"""Checks the machine code of the raw queue's fast path.

Disassembles `probe_enqueue` and `probe_dequeue` in a release build of
`fast_path_probe.rs` and asserts, for each of them:

- exactly one `lock xadd` (the FAA) and one `lock cmpxchg` (the deposit or
  the claim), and no other locked instruction: an `xchg` with a memory
  operand (a SeqCst store) is locked without the prefix and counts too;
- every `call`, and every jump (`jmp` or conditional) that leaves the
  function, goes to one of the out-of-line remainders, the dequeue's
  pending-peer tail `dequeue_help_peer` or the reserved-value panic. A
  call through the GOT is resolved through its relocation;
- no `push` or `pop` of a callee-saved register (`rbx`, `rbp`, `r12`–`r15`):
  the fronts keep nothing alive across a call, so they need no register
  frame. A push of a scratch register to align the stack is allowed.

Usage:
    cargo build --release -p wfq-examples --bin fast_path_probe
    python3 examples/check_fast_path.py target/release/fast_path_probe
"""

import re
import subprocess
import sys

PROBES = ("probe_enqueue", "probe_dequeue")
ALLOWED = (
    "RawQueue<_>::enqueue_rest",
    "RawQueue<_>::dequeue_rest",
    "RawQueue<_>::dequeue_help_peer",
    "wfqueue::raw::reserved_value",
)

INSN = re.compile(r"^\s*([0-9a-f]+):\s+(.*)$")
DIRECT = re.compile(r"^([0-9a-f]+) <(.*)>$")
GOT = re.compile(r"^\*0x[0-9a-f]+\(%rip\)\s+# ([0-9a-f]+)")
CALLEE_SAVED = {"%rbx", "%rbp", "%r12", "%r13", "%r14", "%r15"}


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def symbols(binary):
    """Address -> demangled name of every defined symbol."""
    out = {}
    for line in run("nm", "-C", "--defined-only", binary).splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            out[int(parts[0], 16)] = parts[2]
    return out


def got_targets(binary):
    """GOT slot -> target address, from the R_X86_64_RELATIVE relocations."""
    out = {}
    for line in run("readelf", "-rW", binary).splitlines():
        f = line.split()
        if len(f) >= 4 and f[2] == "R_X86_64_RELATIVE":
            out[int(f[0], 16)] = int(f[3], 16)
    return out


def check(binary, probe, syms, got):
    dis = run("objdump", "-d", "-C", "--no-show-raw-insn", f"--disassemble={probe}", binary)
    insns = [(int(m[1], 16), m[2].strip()) for m in map(INSN.match, dis.splitlines()) if m]
    insns = [(a, t) for a, t in insns if t != "int3"]
    if not insns:
        return [f"{probe}: not found in {binary}"]
    lo, hi = insns[0][0], insns[-1][0]
    errors, locked, targets = [], [], set()
    for addr, text in insns:
        op, _, arg = text.partition(" ")
        arg = arg.strip()
        if op == "lock":
            locked.append(arg.split()[0])
        elif op.startswith("xchg") and "(" in arg:
            locked.append(op)
        elif op in ("push", "pop") and arg in CALLEE_SAVED:
            errors.append(f"{probe}+{addr - lo:#x}: {op} {arg} (callee-saved)")
        if op != "call" and not op.startswith("j"):
            continue
        m = DIRECT.match(arg)
        if m:
            to = int(m[1], 16)
            if op != "call" and lo <= to <= hi:
                continue
            name = m[2]
        elif (g := GOT.match(arg)) and int(g[1], 16) in got:
            name = syms.get(got[int(g[1], 16)], "?")
        else:
            errors.append(f"{probe}+{addr - lo:#x}: unresolved {op} {arg}")
            continue
        targets.add(name)
        if not name.endswith(ALLOWED):
            errors.append(f"{probe}+{addr - lo:#x}: {op} to {name}")
    if sorted(locked) != ["cmpxchg", "xadd"]:
        errors.append(f"{probe}: locked instructions {locked}, want one xadd and one cmpxchg")
    print(f"{probe}: {len(insns)} instructions, locked {sorted(locked)}, "
          f"leaves to {sorted(targets)}")
    return errors


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    syms, got = symbols(binary), got_targets(binary)
    errors = [e for p in PROBES for e in check(binary, p, syms, got)]
    for e in errors:
        print("FAIL", e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
