type kind =
  | Request_admitted of { app : string; type_id : int }
  | Request_retry of { attempt : int; delay_us : float }
  | Request_failover of { from_node : int }
  | Request_shed of { at_node : int }
  | Request_steal of { from_node : int; to_node : int option; scope : string }
  | Request_degraded of { reason : string; stale_impl : int option }
  | Request_completed of { at_node : int; impl_id : int; latency_us : float }
  | Request_failed of { error : string }
  | Node_transition of { prev : string; next : string }
  | Node_rejoin of { resync_lag_us : float }
  | Breaker_transition of { prev : string; next : string }
  | Scrub of { corrupted_words : int; diagnostics : int }
  | Relocation of { device : string; qos_delta : float }
  | Queue_shed of { shard : int }
  | Slo_alert of {
      objective : string;
      state : string;
      burn_fast : float;
      burn_slow : float;
    }

type event = { ts : float; request : int option; node : int option; kind : kind }

type state = {
  capacity : int;
  ring : event option array;
  mutable next : int;  (* Write cursor into [ring]. *)
  mutable stored : int;  (* <= capacity. *)
  mutable recorded : int;  (* Monotone, includes overwritten events. *)
}

type t = Noop | Recording of state

let default_capacity = 65536

let noop () = Noop

let recording ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Obs.Events.recording: capacity must be >= 1";
  Recording
    { capacity; ring = Array.make capacity None; next = 0; stored = 0;
      recorded = 0 }

let enabled = function Noop -> false | Recording _ -> true

let record t ~ts ?request ?node kind =
  match t with
  | Noop -> ()
  | Recording s ->
      s.ring.(s.next) <- Some { ts; request; node; kind };
      s.next <- (s.next + 1) mod s.capacity;
      if s.stored < s.capacity then s.stored <- s.stored + 1;
      s.recorded <- s.recorded + 1

let recorded = function Noop -> 0 | Recording s -> s.recorded
let dropped = function Noop -> 0 | Recording s -> s.recorded - s.stored
let capacity = function Noop -> 0 | Recording s -> s.capacity

(* Surviving events oldest-first: the slot after the write cursor when
   the ring has wrapped, slot 0 otherwise. *)
let iter f = function
  | Noop -> ()
  | Recording s ->
      let start = if s.stored < s.capacity then 0 else s.next in
      for i = 0 to s.stored - 1 do
        match s.ring.((start + i) mod s.capacity) with
        | Some e -> f e
        | None -> assert false
      done

let events t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let kind_name = function
  | Request_admitted _ -> "request-admitted"
  | Request_retry _ -> "request-retry"
  | Request_failover _ -> "request-failover"
  | Request_shed _ -> "request-shed"
  | Request_steal _ -> "request-steal"
  | Request_degraded _ -> "request-degraded"
  | Request_completed _ -> "request-completed"
  | Request_failed _ -> "request-failed"
  | Node_transition _ -> "node-transition"
  | Node_rejoin _ -> "node-rejoin"
  | Breaker_transition _ -> "breaker-transition"
  | Scrub _ -> "scrub"
  | Relocation _ -> "relocation"
  | Queue_shed _ -> "queue-shed"
  | Slo_alert _ -> "slo-alert"

let add_int_field buf key n =
  Buffer.add_string buf key;
  Jsonu.add_int buf n

let add_opt_int_field buf key = function
  | None -> ()
  | Some n -> add_int_field buf key n

let add_str_field buf key v =
  Buffer.add_string buf key;
  Jsonu.add_str buf v

let add_float_field buf key v =
  Buffer.add_string buf key;
  Jsonu.add_float buf v

(* One event, one line, fixed field order: ts, event, request, node,
   then the kind's own fields.  Every number goes through the
   [Jsonu] writers, so the export is byte-deterministic. *)
let add_event buf e =
  add_float_field buf "{\"ts\":" e.ts;
  add_str_field buf ",\"event\":" (kind_name e.kind);
  add_opt_int_field buf ",\"request\":" e.request;
  add_opt_int_field buf ",\"node\":" e.node;
  (match e.kind with
  | Request_admitted { app; type_id } ->
      add_str_field buf ",\"app\":" app;
      add_int_field buf ",\"type\":" type_id
  | Request_retry { attempt; delay_us } ->
      add_int_field buf ",\"attempt\":" attempt;
      add_float_field buf ",\"delay_us\":" delay_us
  | Request_failover { from_node } ->
      add_int_field buf ",\"from_node\":" from_node
  | Request_shed { at_node } -> add_int_field buf ",\"at_node\":" at_node
  | Request_steal { from_node; to_node; scope } ->
      add_int_field buf ",\"from_node\":" from_node;
      add_opt_int_field buf ",\"to_node\":" to_node;
      add_str_field buf ",\"scope\":" scope
  | Request_degraded { reason; stale_impl } ->
      add_str_field buf ",\"reason\":" reason;
      add_opt_int_field buf ",\"stale_impl\":" stale_impl
  | Request_completed { at_node; impl_id; latency_us } ->
      add_int_field buf ",\"at_node\":" at_node;
      add_int_field buf ",\"impl\":" impl_id;
      add_float_field buf ",\"latency_us\":" latency_us
  | Request_failed { error } -> add_str_field buf ",\"error\":" error
  | Node_transition { prev; next } | Breaker_transition { prev; next } ->
      add_str_field buf ",\"prev\":" prev;
      add_str_field buf ",\"next\":" next
  | Node_rejoin { resync_lag_us } ->
      add_float_field buf ",\"resync_lag_us\":" resync_lag_us
  | Scrub { corrupted_words; diagnostics } ->
      add_int_field buf ",\"corrupted_words\":" corrupted_words;
      add_int_field buf ",\"diagnostics\":" diagnostics
  | Relocation { device; qos_delta } ->
      add_str_field buf ",\"device\":" device;
      add_float_field buf ",\"qos_delta\":" qos_delta
  | Queue_shed { shard } -> add_int_field buf ",\"shard\":" shard
  | Slo_alert { objective; state; burn_fast; burn_slow } ->
      add_str_field buf ",\"objective\":" objective;
      add_str_field buf ",\"state\":" state;
      add_float_field buf ",\"burn_fast\":" burn_fast;
      add_float_field buf ",\"burn_slow\":" burn_slow);
  Buffer.add_string buf "}\n"

let to_ndjson t =
  let buf = Buffer.create 4096 in
  iter (add_event buf) t;
  add_int_field buf "{\"event\":\"eventlog-summary\",\"recorded\":"
    (recorded t);
  add_int_field buf ",\"dropped\":" (dropped t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
