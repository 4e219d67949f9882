"""Bytecode compiler and coercion-aware VM — the fast λS engine.

The pipeline (surface → λB → λC → λS → bytecode → VM)::

    elaborated λB term
        │  b_to_c, c_to_s            (Figures 4 & 6)
        ▼
    λS term
        │  repro.compiler.lower      lexical addressing, pre-interned coercions
        ▼
    CodeObject over a ConstantPool   (repro.compiler.bytecode)
        │  repro.compiler.vm         integer dispatch, pending-coercion slot
        │  repro.compiler.regalloc   stack → register IR, packed word streams
        ▼                            (repro.compiler.rvm: the fastest engine)
    MachineOutcome (value / blame / timeout) with space statistics

The CEK machine (:mod:`repro.machine`) remains the oracle for both VMs:
``repro.properties.bisimulation.check_vm_oracle`` runs them against both
the machine and the substitution reducers and compares observables.
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "bytecode": ("DEFAULT_OPT_LEVEL", "OPT_LEVELS", "SUPERINSTRUCTIONS", "CodeObject",
                 "ConstantPool", "all_code_objects", "opcode_fingerprint"),
    "cache": ("CacheOutcome", "cache_path", "cached_compile", "default_cache_dir"),
    "disasm": ("disassemble", "disassemble_image", "disassemble_registers",
               "instruction_streams", "parse_disassembly", "parse_register_disassembly",
               "register_streams"),
    "lower": ("lower_program",),
    "opt": ("hot_pairs", "optimize"),
    "regalloc": ("RCode", "all_rcodes", "compile_registers", "register_fingerprint"),
    "rvm": ("RVM", "THE_RVM", "RClosure", "compile_term_registers", "run_on_rvm",
            "run_rcode"),
    "serialize": ("FORMAT_VERSION", "GRADB_MAGIC", "GRADB_SUFFIX", "ImageError",
                  "ImageInfo", "LoadedImage", "deserialize_image", "load_image",
                  "save_image", "serialize_image", "source_fingerprint"),
    "vm": ("DEFAULT_VM_FUEL", "THE_VM", "VM", "VMClosure", "compile_term", "run_code",
           "run_on_vm"),
})

__all__ = [
    "CodeObject",
    "ConstantPool",
    "SUPERINSTRUCTIONS",
    "all_code_objects",
    "opcode_fingerprint",
    "CacheOutcome",
    "cache_path",
    "cached_compile",
    "default_cache_dir",
    "disassemble",
    "disassemble_image",
    "disassemble_registers",
    "instruction_streams",
    "parse_disassembly",
    "parse_register_disassembly",
    "register_streams",
    "FORMAT_VERSION",
    "GRADB_MAGIC",
    "GRADB_SUFFIX",
    "ImageError",
    "ImageInfo",
    "LoadedImage",
    "deserialize_image",
    "load_image",
    "save_image",
    "serialize_image",
    "source_fingerprint",
    "lower_program",
    "DEFAULT_OPT_LEVEL",
    "OPT_LEVELS",
    "optimize",
    "hot_pairs",
    "DEFAULT_VM_FUEL",
    "THE_VM",
    "VM",
    "VMClosure",
    "compile_term",
    "run_code",
    "run_on_vm",
    "RCode",
    "all_rcodes",
    "compile_registers",
    "register_fingerprint",
    "RVM",
    "THE_RVM",
    "RClosure",
    "compile_term_registers",
    "run_on_rvm",
    "run_rcode",
]
