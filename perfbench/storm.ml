(* The login-storm workload: {!Workloads.Loadgen.run_overload} at its
   default configuration — calm, naive and controlled rows at one seed. *)

open Workloads

let config seed =
  let o = Loadgen.default_overload in
  { o with Loadgen.o_base = { o.Loadgen.o_base with Loadgen.seed } }

let rows s = [ s.Loadgen.os_calm; s.Loadgen.os_naive; s.Loadgen.os_controlled ]

let admission_of_row (r : Loadgen.overload_row) =
  { Obs.arrived = r.Loadgen.or_arrived; processed = r.Loadgen.or_processed;
    busy = r.Loadgen.or_busy_rejections; brownout = r.Loadgen.or_brownout_sheds;
    deadline = r.Loadgen.or_deadline_sheds; silent = r.Loadgen.or_silent_drops;
    client_busy = r.Loadgen.or_busy_received; breaker_trips = r.Loadgen.or_breaker_trips;
    budget_exhausted = r.Loadgen.or_budget_exhausted }

let admission s =
  List.fold_left (fun a r -> Obs.add_admission a (admission_of_row r)) Obs.no_admission (rows s)

(* The storm's output checks: its own floors, and no silent drop on any
   row — every arrival processed, refused busy or shed. *)
let check s =
  Loadgen.overload_floor_failures s
  @ List.concat_map
      (fun (r : Loadgen.overload_row) ->
        if r.Loadgen.or_silent_drops = 0 then []
        else [ Printf.sprintf "%s: %d silent drops" r.Loadgen.or_label r.Loadgen.or_silent_drops ])
      (rows s)
