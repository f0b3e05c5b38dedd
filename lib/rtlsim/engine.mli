(** [Qos_core.Engine] adapter over the cycle-accurate {!Machine}.

    The case base is compiled into a CB-MEM RAM once at {!create}, and
    the engine keeps one machine state over it and over a Req-MEM of
    its own.  Each retrieval writes the request into that Req-MEM
    ({!Memlayout.write_request}) and runs the FSM from reset: the same
    words as [Machine.retrieve] builds, so the same decision, cycles
    and phase split, while the design-time tree encoding is amortised —
    the run-time usage pattern the paper assumes.  Untraced, a
    retrieval allocates only its decision and the Q15 weight
    conversions (about 15 words).  Because the state is reused, an
    engine instance must be driven from one domain at a time (see
    [Qos_core.Engine]).

    This module is also the only sanctioned doorway to the machine for
    consumers outside [lib/rtlsim]: the trace/waveform and raw-image
    entry points the CLI needs are re-exported here so nothing else
    calls {!Machine} directly. *)

val create :
  ?config:Machine.config -> Qos_core.Casebase.t -> (Qos_core.Engine.t, string) result
(** Engine named ["rtlsim"]; bit-accurate, reports cycles and the
    four-phase attribution.  Defaults to {!Machine.paper_config}. *)

val factory : Qos_core.Engine.factory
(** {!create} under the paper configuration. *)

val decision_of_outcome : Machine.outcome -> Qos_core.Engine.decision

val error_of_machine : Machine.error -> Qos_core.Engine.error

val run_image :
  ?config:Machine.config ->
  Memlayout.system_image ->
  (Qos_core.Engine.decision, string) result
(** Execute one retrieval over a pre-built (e.g. re-imported) RAM
    image — the [qosalloc verify] path. *)

val retrieve_traced :
  ?config:Machine.config ->
  ?trace:bool ->
  ?waveform:bool ->
  Qos_core.Casebase.t ->
  Qos_core.Request.t ->
  (Machine.outcome, string) result
(** One-shot retrieval exposing the machine's full outcome (cycle
    trace, waveform, statistics) — the [qosalloc trace] path. *)
