(** Application models for the Fig. 1 system: an MP3 player, a video
    scaler, an automotive ECU function and a cruise controller, each
    issuing QoS-constrained function requests over time.

    Also provides the multimedia/automotive reference case base these
    applications request against.  Attribute dictionary (IDs shared
    with the paper example where applicable):
    1 bitwidth [8,32] - 2 processing mode [0,1] - 3 output mode [0,2] -
    4 sample rate [8,48] kS/s - 5 response latency class [1,1000] -
    6 power [10,5000] mW - 7 frame rate [5,60] fps -
    8 resolution class [1,16] - 9 error-rate class [0,100]. *)

val reference_schema : Qos_core.Attr.Schema.t

val reference_casebase : Qos_core.Casebase.t
(** Six function types (FIR equalizer, 1D-FFT, MP3 decode, video
    scaler, ECU control, cruise PID), 3 variants each across
    FPGA/DSP/GPP/ASIC targets. *)

(** One request shape an application issues. *)
type template = {
  t_type_id : int;
  t_constraints : (Qos_core.Attr.id * Qos_core.Attr.value * int * float) list;
      (** (attribute, nominal value, +/- jitter, weight). *)
}

type arrival = Periodic | Poisson

type profile = {
  app_id : string;
  priority : int;
  arrival : arrival;
  period_us : float;  (** Mean inter-request time. *)
  hold_us : float * float;  (** Uniform task-lifetime range. *)
  templates : template list;  (** Cycled round-robin. *)
}

val mp3_player : profile
val video_scaler : profile
val automotive_ecu : profile
val cruise_control : profile

val standard_apps : profile list
(** The four applications of Fig. 1. *)

(** {1 Drawing requests}

    A template is compiled once and then drawn from for every arrival;
    this is the only way requests are made from templates. *)

type compiled
(** A template validated by [Qos_core.Request.make] at its nominal
    values, ready for repeated draws. *)

val compile : template -> compiled
(** @raise Failure when the template is not a valid request shape
    (bad type ID, attribute ID or weight, or a duplicate attribute). *)

val draw : Workload.Prng.t -> compiled -> Qos_core.Request.t
(** Jitter each nominal value uniformly within its +/- bound, in
    template order (a zero bound draws nothing), and clamp it to the
    16-bit word range.  A template without jitter returns the same
    request every time and leaves [rng] untouched. *)

type cycle
(** A profile's compiled templates, drawn round-robin. *)

val cycle : profile -> cycle

val next : Workload.Prng.t -> cycle -> Qos_core.Request.t
(** {!draw} the next template in the cycle.
    @raise Invalid_argument when the profile has no templates. *)

val inter_arrival : profile -> Workload.Prng.t -> float
(** Gap to the next request: [period_us] for a periodic profile, an
    exponential draw of that mean for a Poisson one. *)

val hold_time : profile -> Workload.Prng.t -> float
(** Task lifetime, uniform over [hold_us]. *)

val arrival_source :
  profile ->
  rng:Workload.Prng.t ->
  horizon:float ->
  unit ->
  (float * Qos_core.Request.t) option
(** Pull-based arrival source for one profile, shaped for
    [Workload.Stream]: each call draws the next inter-arrival gap and
    then instantiates the next template — exactly the draw order of
    the pregenerated expansion, so a given [rng] yields the identical
    timestamped sequence either way.  [None] once the next arrival
    would land at or past [horizon]; the source then stays exhausted
    and draws nothing further. *)
