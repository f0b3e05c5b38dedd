module E = Qos_core.Engine

let decision_of_outcome (o : Machine.outcome) =
  {
    E.impl_id = o.Machine.best_impl_id;
    score = o.Machine.best_score;
    cycles = Some o.Machine.stats.Machine.cycles;
  }

let error_of_machine = function
  | Machine.Type_not_found id -> E.Unknown_type id
  | Machine.No_implementations id -> E.No_implementations id
  | Machine.Malformed_image m ->
      E.Engine_failure ("malformed RAM image: " ^ m)

let create ?(config = Machine.paper_config) cb =
  match Memlayout.load_cb cb with
  | Error e -> Error e
  | Ok (cb_ram, supplemental_base) ->
      (* One machine over the CB-MEM built once and a Req-MEM rewritten
         per request, so an engine is driven from one domain at a time
         (the contract of [Qos_core.Engine.t]). *)
      let req = Memlayout.Ram.blank () in
      let m = Machine.load ~config ~cb:cb_ram ~req ~supplemental_base () in
      let exec request =
        match Memlayout.write_request req request with
        | Error msg -> Error (E.Engine_failure msg)
        | Ok () -> (
            match Machine.exec m with
            | Ok () -> Ok ()
            | Error e -> Error (error_of_machine e))
      in
      let retrieve request =
        match exec request with
        | Ok () ->
            Ok
              {
                E.impl_id = Machine.best_impl_id m;
                score = Machine.best_score m;
                cycles = Some (Machine.cycles m);
              }
        | Error e -> Error e
      in
      let phase_cycles request =
        Result.map
          (fun () ->
            let phases = (Machine.stats m).Machine.phases in
            List.map
              (fun p ->
                (Machine.phase_name p, Machine.phase_cycles_get p phases))
              Machine.all_phases)
          (exec request)
      in
      Ok
        {
          E.name = "rtlsim";
          caps = { E.bit_accurate = true; reports_cycles = true };
          retrieve;
          retrieve_batch = E.batch_of_single retrieve;
          phase_cycles = Some phase_cycles;
        }

let factory cb = create cb

let run_image ?config image =
  match Machine.run ?config image with
  | Ok o -> Ok (decision_of_outcome o)
  | Error e -> Error (Machine.error_to_string e)

let retrieve_traced ?config ?trace ?waveform cb request =
  Result.map_error Machine.error_to_string
    (Machine.retrieve ?config ?trace ?waveform cb request)
