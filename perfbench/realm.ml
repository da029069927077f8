(* The two realm-scale workloads: open-loop TGS→AP→priv traffic from
   {!Workloads.Loadgen.run_timed}, run as a batch in simulated time. *)

open Workloads

(* The committed million-user campaign: lazily materialized users, v4,
   credential cache on, lightweight telemetry. *)
let realm_1m seed =
  { Loadgen.default with
    Loadgen.users = 1_000_000; shards = 8; kdcs = 4; active_clients = 2000;
    requests_per_client = 10; ccache = true; seed; profile = Kerberos.Profile.v4;
    lightweight = true; lazy_users = true }

(* The same layers used the other way: eagerly registered users (Kdb
   writes and string-to-key in set-up), DER and CBC+checksum sealing,
   full telemetry, and no credential cache, so every request is a TGS. *)
let realm_eager seed =
  { Loadgen.default with
    Loadgen.users = 100_000; shards = 8; kdcs = 4; active_clients = 1000;
    requests_per_client = 10; ccache = false; seed;
    profile = Kerberos.Profile.v5_draft3; lightweight = false; lazy_users = false }

type campaign = {
  report : Loadgen.report;
  setup : Clock.interval;  (** call to the world being built and scheduled *)
  run_s : float;  (** world built to report returned, host-paced *)
  cost : Obs.cost;  (** the run phase *)
  reg : Obs.snapshot;
  events : int;
  tap : Tap.t option;
}

(* Run one campaign. With [~traced], a {!Tap} watches the wire. *)
let campaign ?(traced = false) cfg =
  let t0 = Clock.now_ns () in
  let setup = ref (Clock.interval_since t0) and run0 = ref (Obs.mark ()) in
  let world = ref None and tap = ref None in
  let report, _ =
    Loadgen.run_timed cfg ~on_world:(fun w tel ->
        setup := Clock.interval_since t0;
        world := Some (w, tel);
        (if traced then
           let kdcs = w.Attack_mix.w_kdcs in
           let svcs = Array.to_list (Array.map (fun (_, _, a) -> a) w.Attack_mix.w_services) in
           let mem a l = List.exists (Sim.Addr.equal a) l in
           let t =
             Tap.create ~engine:w.Attack_mix.w_engine
               ~kind:cfg.Loadgen.profile.Kerberos.Profile.encoding
               ~role_of:(fun a ->
                 if mem a kdcs then Tap.Kdc else if mem a svcs then Tap.Ap else Tap.Client)
           in
           Tap.attach w.Attack_mix.w_net t;
           tap := Some t);
        run0 := Obs.mark ())
  in
  let cost = Obs.since !run0 in
  let w, tel = Option.get !world in
  { report; setup = !setup; run_s = cost.Obs.wall_s; cost;
    reg = Obs.snapshot tel; events = Sim.Engine.executed w.Attack_mix.w_engine; tap = !tap }

exception Built

(* Set-up alone: build and schedule the world, then stop before it runs. *)
let setup_only cfg =
  match Loadgen.run_timed cfg ~on_world:(fun _ _ -> raise Built) with
  | _ -> invalid_arg "Realm.setup_only: the world ran"
  | exception Built -> ()

let expected cfg = cfg.Loadgen.active_clients * cfg.Loadgen.requests_per_client

(* A campaign's report as {!Loadgen.report_to_json} bytes, with [cfg] as
   its config echo: a campaign run with the lightweight knob flipped must
   match its twin in everything but that echo. *)
let json cfg c = Telemetry.Json.to_string (Loadgen.report_to_json { c.report with Loadgen.r_config = cfg })

(* The output checks on one campaign of [cfg], as failure messages.
   [first] is the run's first report ({!json}), which every repeat must
   reproduce byte for byte. The registry's per-KDC counters, summed over
   the pool, must agree with the report. *)
let check cfg ~first c =
  let r = c.report in
  let sum_served = Obs.sum_suffix c.reg ".as_requests_served" in
  let established = Obs.sum_suffix c.reg ".sessions_established" in
  List.concat
    [ (if r.Loadgen.completed = expected cfg then []
       else [ Printf.sprintf "completed %d of %d" r.Loadgen.completed (expected cfg) ]);
      (if r.Loadgen.errors = 0 then [] else [ Printf.sprintf "%d errors" r.Loadgen.errors ]);
      (if json cfg c = first then [] else [ "report differs from the run's first report" ]);
      (if sum_served = r.Loadgen.as_requests then []
       else [ Printf.sprintf "registry AS served %d, report %d" sum_served r.Loadgen.as_requests ]);
      (if established = r.Loadgen.ap_exchanges then []
       else
         [ Printf.sprintf "registry AP sessions %d, report %d" established r.Loadgen.ap_exchanges ]) ]
