(** The native engine: a case base compiled to specialized retrieval
    kernels over flat unboxed int arrays.

    [of_casebase] encodes the case base with [Memlayout.encode_cb],
    elaborates the CB-MEM ROM with {!Elaborate.rom_module} — the same
    IR module [Rtlgen.Vhdl] prints and {!Sim} executes — and compiles
    retrieval kernels directly over that ROM's word image: the exact
    Fig. 4/5 BRAM layout (ID-sorted level-2 attribute lists, the
    supplemental reciprocal table), scanned with the hardware's
    resume-scan discipline and scored with inline Q15 arithmetic that
    replicates [Fxp.Q15] operation for operation (saturating add,
    round-to-nearest multiply, complement-to-one).

    The result is decision-identical to [Qos_core.Engine_fixed] —
    same winning variant, same raw Q15 score — at native int-array
    speed: no cycle accounting, no per-access RAM model, no request
    image encoding.  The cross-engine equivalence harness in
    [test_engines] holds it to that contract on the golden workloads
    and randomized case bases. *)

type t
(** A compiled case base.  It owns the kernel-input scratch its
    retrievals reuse (grown on demand to the longest request seen), so
    a [t] and the engine over it are driven from one domain at a time,
    the contract of [Qos_core.Engine.t]; {!factory} compiles a fresh
    [t] per engine. *)

val of_casebase : Qos_core.Casebase.t -> (t, string) result
(** Fails when the case base does not encode (e.g. image exceeds the
    16-bit address space) or the elaborated ROM diverges from the
    Memlayout encoding. *)

val bram_image : t -> int array
(** The ROM word image the kernels were compiled from — byte-for-word
    the Fig. 4/5 CB-MEM content of the elaborated IR (a copy). *)

val retrieve :
  t ->
  Qos_core.Request.t ->
  (Qos_core.Engine.decision, Qos_core.Engine.error) result
(** One retrieval; [cycles] is [None] (the native engine has no
    timing model). *)

val engine : t -> Qos_core.Engine.t
(** Wrap as the engine named ["native"]; bit-accurate, no cycles. *)

val factory : Qos_core.Engine.factory
(** [of_casebase] + {!engine}. *)
