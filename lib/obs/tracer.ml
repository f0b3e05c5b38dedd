type ph = B | E | X

type event = {
  name : string;
  ph : ph;
  ts : float;
  dur : float;
  args : (string * string) list;
}

type state = {
  mutable rev_events : event list;
  mutable stack : string list;
}

type t = Noop | Collecting of state
type span = No_span | Span of string

let noop () = Noop
let collecting () = Collecting { rev_events = []; stack = [] }
let enabled = function Noop -> false | Collecting _ -> true

let begin_span t ~ts ?(args = []) name =
  match t with
  | Noop -> No_span
  | Collecting s ->
      s.rev_events <- { name; ph = B; ts; dur = 0.0; args } :: s.rev_events;
      s.stack <- name :: s.stack;
      Span name

let end_span t ~ts span =
  match (t, span) with
  | Noop, _ | _, No_span -> ()
  | Collecting s, Span name -> (
      match s.stack with
      | top :: rest when String.equal top name ->
          s.stack <- rest;
          s.rev_events <- { name; ph = E; ts; dur = 0.0; args = [] } :: s.rev_events
      | _ -> invalid_arg ("Obs.Tracer.end_span: unbalanced span " ^ name))

let complete t ~ts ~dur ?(args = []) name =
  match t with
  | Noop -> ()
  | Collecting s ->
      s.rev_events <- { name; ph = X; ts; dur; args } :: s.rev_events

let events = function
  | Noop -> []
  | Collecting s -> List.rev s.rev_events

let open_spans = function Noop -> 0 | Collecting s -> List.length s.stack

let ph_str = function B -> "B" | E -> "E" | X -> "X"

(* [sep] opens the object, then separates its members. *)
let rec add_args buf sep = function
  | [] -> ()
  | (k, v) :: rest ->
      Buffer.add_char buf sep;
      Jsonu.add_str buf k;
      Buffer.add_char buf ':';
      Jsonu.add_str buf v;
      add_args buf ',' rest

let add_event buf e =
  Buffer.add_string buf "{\"name\":";
  Jsonu.add_str buf e.name;
  Buffer.add_string buf ",\"cat\":\"qosalloc\",\"ph\":\"";
  Buffer.add_string buf (ph_str e.ph);
  Buffer.add_string buf "\",\"ts\":";
  Jsonu.add_float buf e.ts;
  if e.ph = X then begin
    Buffer.add_string buf ",\"dur\":";
    Jsonu.add_float buf e.dur
  end;
  Buffer.add_string buf ",\"pid\":1,\"tid\":1";
  (match e.args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":";
      add_args buf '{' args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      add_event buf e)
    (events t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
