(** First-class retrieval-engine interface.

    The paper's Fig. 7 retrieval unit exists in this repository as
    several implementations — the float reference, the Q15 bit-accurate
    engine, the cycle-accurate machine model, the netlist-IR simulator
    and the IR-compiled native engine.  Each used to carry its own
    calling convention; this module is the one seam they all plug
    into: create an engine from a {!Casebase.t}, retrieve one
    {!Request.t}, get back one {!decision}.

    Engines are plain records of closures rather than a functor so a
    registry can hold them side by side and consumers (the allocator,
    the sharded front-end, fault campaigns, profiling, the CLI) can
    select one at run time with an [--engine] flag.

    The float and fixed instances live here; the cycle-reporting
    instances are adapters in [Rtlsim.Engine], [Netlist.Engine] and
    [Netlist.Compile], and [qosalloc.engines] collects all five under
    their CLI names.

    {b Domains.} One {!t} is driven from one domain at a time: an
    instance may own mutable scratch state (the [rtlsim] machine and its
    Req-MEM are reused from call to call), so two domains must never
    call the same instance at once.  Build one instance per domain, as
    [Cluster.Serve.compute_decisions] (node [n] belongs to worker
    [n mod jobs]) and [Parallel.Shard.partition] (one engine per shard)
    do. *)

type decision = {
  impl_id : int;  (** Winning implementation variant. *)
  score : Fxp.Q15.t;  (** Global similarity of the winner. *)
  cycles : int option;
      (** Modeled retrieval-unit cycles; [None] for engines without a
          timing model (float, fixed, native). *)
}

type error =
  | Unknown_type of int  (** Function type absent from the case base. *)
  | No_implementations of int  (** Type present but has no variants. *)
  | Engine_failure of string
      (** Engine-specific failure (e.g. an image that does not
          encode). *)

type caps = {
  bit_accurate : bool;
      (** Scores are bit-identical to [Engine_fixed] (the Q15 golden
          model).  The float reference is the only engine without
          this. *)
  reports_cycles : bool;  (** {!decision.cycles} is always [Some _]. *)
}

type t = {
  name : string;  (** Registry/CLI name, e.g. ["rtlsim"]. *)
  caps : caps;
  retrieve : Request.t -> (decision, error) result;
  retrieve_batch : Request.t list -> (decision, error) result list;
      (** One result per request, in order.  Engines with per-stream
          setup amortise it here; the default maps {!retrieve}. *)
  phase_cycles : (Request.t -> ((string * int) list, error) result) option;
      (** Per-phase cycle attribution (the profiler hook); only
          engines with a phase-level timing model provide it. *)
}

type factory = Casebase.t -> (t, string) result
(** Compile a case base into an engine.  Fails when the case base
    cannot be compiled for this engine (e.g. the RAM image exceeds the
    16-bit address space). *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit
val equal_error : error -> error -> bool

val of_retrieval_error : Retrieval.error -> error
(** Embed the core-engine error type. *)

val batch_of_single :
  (Request.t -> (decision, error) result) ->
  Request.t list ->
  (decision, error) result list
(** The default batch implementation: map the single-shot retrieve. *)

val float_engine : factory
(** The float reference ([Engine_float]): scores are computed in
    double precision and quantised to Q15 for the decision record.
    Not bit-accurate — ties within one Q15 ulp may rank differently
    from the fixed datapath. *)

val fixed_engine : factory
(** The Q15 golden model ([Engine_fixed]): the bit-accurate reference
    every hardware-flavoured engine is held equal to. *)

val equal_decision : decision -> decision -> bool
(** Variant and score; cycles compared only when both report them. *)

val pp_decision : Format.formatter -> decision -> unit
