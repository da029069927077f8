(* The repository benchmark: one workload at one seed. Untraced, it
   reports the end-to-end metrics; traced ([--trace 1]), the per-layer
   ones. It prints a single JSON object as the last line of standard
   output (progress goes to standard error) and exits nonzero when an
   output check fails. BENCHMARK.json lists the workloads and metrics;
   run.py builds this executable and runs it. *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** output-check failures; empty = correct *)
  metrics : (string * float * string) list;
}

(* Closed-loop sessions the realm and storm workloads time at their own
   profile, for their [session_us_*] rows: 5000 leave 50 beyond p99,
   whose samples are the collector's slices. *)
let probe_sessions = 5000

(* Set-up-only builds of the storm's base realm per run: the proxy for
   the storm's own set-up, which [run_overload] gives no hook to time.
   Each takes ≈2 ms, so many are timed and the median reported. *)
let storm_setups = 31

(* Testbed builds per session_hardened run (≈30 µs each). *)
let bed_setups = 1001

(* Sessions in each unit of session_hardened's untraced loop. *)
let session_batch = 1000

(* Sessions in each unit of the traced session loop. *)
let traced_sessions = 1500

(* The tap's per-role self times must account for at least this share of
   the traced run phase; the rest is the tap itself and the phase's head
   and tail. *)
let tap_cover = 0.8

(* The work of an untraced run is fixed by [--seconds], not by the
   clock: [seconds] divided by the unit's wall time on an unloaded
   2 GHz Xeon, at least [min]. A slow host then takes longer over the
   same work instead of doing less of it, and the peak heap does not
   depend on host speed. *)
let units ~seconds ~unit_s ~min = max min (int_of_float (Float.round (seconds /. unit_s)))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The probe sessions of a realm or storm run, on a testbed of the
   workload's profile, before its units, so the sessions run on a small
   heap as [session_hardened]'s do, not among the units' garbage. *)
let probe ~seed profile = Sessions.loop ~n:probe_sessions (Sessions.make ~seed profile)

(* The end-to-end metrics, in BENCHMARK.json's order. [setups] are
   host-paced seconds, [units] (exchanges completed, host-paced seconds)
   of each unit of work: the throughput is their totals' ratio, [run_s]
   the median unit. The sessions' wall-time percentiles go to standard
   error. *)
let end_to_end ~setups ~units ~(sessions : Sessions.timings) ~failures =
  let paced = Sessions.paced_us sessions in
  let n = List.length paced in
  let pct q name =
    match Stats.percentile q paced with
    | Some v -> (v, [])
    | None -> (nan, [ Printf.sprintf "%s: %d sessions leave too few beyond it" name n ])
  in
  let raw q = Option.value ~default:nan (Stats.percentile q (Sessions.raw_us sessions)) in
  Printf.eprintf "sessions %d, wall p50 %.1f us, p99 %.1f us\n" n (raw 0.5) (raw 0.99);
  let p50, f50 = pct 0.5 "session_us_p50" and p99, f99 = pct 0.99 "session_us_p99" in
  let failures = failures @ f50 @ f99 in
  ( failures,
    [ ("setup_s", Stats.median setups, "s");
      ( "exchanges_per_s",
        float_of_int (List.fold_left (fun a (n, _) -> a + n) 0 units)
        /. List.fold_left (fun a (_, s) -> a +. s) 0.0 units,
        "1/s" );
      ("run_s", Stats.median (List.map snd units), "s");
      ("session_us_p50", p50, "us");
      ("session_us_p99", p99, "us");
      ("peak_heap_mb", peak_heap_mb (), "MB");
      ("gate_ok", (if failures = [] then 1.0 else 0.0), "bool") ] )

let session_failures fs = List.map (fun e -> "session " ^ e) fs

(* --- realm_1m and realm_eager --- *)

let realm_untraced cfg ~seconds ~unit_s =
  let open Workloads.Loadgen in
  let sessions = probe ~seed:cfg.seed cfg.profile in
  let cs = List.init (units ~seconds ~unit_s ~min:2) (fun _ -> Realm.campaign cfg) in
  Printf.eprintf "campaign wall run_s %s\n"
    (String.concat " " (List.map (fun c -> Printf.sprintf "%.3f" c.Realm.cost.Obs.raw_s) cs));
  let first = Realm.json cfg (List.hd cs) in
  let setups = List.map (fun c -> Clock.paced_s c.Realm.setup) cs in
  let failures, metrics =
    end_to_end ~setups
      ~units:(List.map (fun c -> (c.Realm.report.completed, c.Realm.run_s)) cs)
      ~sessions
      ~failures:
        (List.concat_map (Realm.check cfg ~first) cs @ session_failures sessions.Sessions.failures)
  in
  let attempted = List.length cs * Realm.expected cfg in
  let completed = List.fold_left (fun a c -> a + c.Realm.report.completed) 0 cs in
  let probe_failed = List.length sessions.Sessions.failures in
  { attempted = attempted + List.length sessions.Sessions.times;
    failed = attempted - completed + probe_failed;
    failures; metrics }

let max_over_mean a =
  let n = Array.length a and total = Array.fold_left ( + ) 0 a in
  if n = 0 || total = 0 then 1.0
  else float_of_int (Array.fold_left max 0 a) /. (float_of_int total /. float_of_int n)

(* Rounds of a traced run: each runs the workload's unit untraced, with
   the lightweight knob flipped, and tapped, so the time ratios compare
   neighbours and host drift shows less. Counts come from the first
   round. *)
let traced_rounds = 3

(* ... and of login_storm's suites, which take ≈8 s each. *)
let storm_rounds = 2

let median_of f xs = Stats.median (List.map f xs)

let realm_traced cfg =
  let open Workloads.Loadgen in
  let rounds =
    List.init traced_rounds (fun _ ->
        let base = Spans.around "realm.campaign.untraced" (fun () -> Realm.campaign cfg) in
        let toggled =
          Spans.around "realm.campaign.lightweight_toggled" (fun () ->
              Realm.campaign { cfg with lightweight = not cfg.lightweight })
        in
        let traced =
          Spans.around "realm.campaign.traced" (fun () -> Realm.campaign ~traced:true cfg)
        in
        (base, toggled, traced))
  in
  let base, _, traced = List.hd rounds in
  let all = List.concat_map (fun (b, t, x) -> [ b; t; x ]) rounds in
  let run_s f = median_of (fun r -> (f r).Realm.run_s) rounds in
  let base_s = run_s (fun (b, _, _) -> b) and toggled_s = run_s (fun (_, t, _) -> t) in
  let tap = Option.get traced.Realm.tap in
  let r = traced.Realm.report in
  let cover = Tap.total_self_s tap /. traced.Realm.cost.Obs.raw_s in
  let failures =
    List.concat_map (Realm.check cfg ~first:(Realm.json cfg base)) all
    @
    if cover >= tap_cover && cover <= 1.0 then []
    else [ Printf.sprintf "tap self times cover %.3f of the traced run" cover ]
  in
  let light_s, full_s = if cfg.lightweight then (base_s, toggled_s) else (toggled_s, base_s) in
  let o =
    { Obs.profile = cfg.profile; seed = cfg.seed; exchanges = r.completed;
      events = traced.Realm.events; tap; tap_pace = Obs.pace traced.Realm.cost;
      reg = traced.Realm.reg; untraced = base.Realm.cost;
      untraced_exchanges = base.Realm.report.completed;
      traced_s = run_s (fun (_, _, x) -> x); trace_base_s = base_s; light_s; full_s;
      ccache_hit_frac = Obs.frac r.ccache_hits (r.ccache_hits + r.ccache_misses);
      kdb_lookups = Array.fold_left ( + ) 0 r.shard_lookups;
      kdb_balance = lookup_balance r;
      lazy_materialized = (if cfg.lazy_users then Hashtbl.length tap.Tap.as_clients else 0);
      admission = Obs.admission_of_registry traced.Realm.reg }
  in
  let attempted = List.length all * Realm.expected cfg in
  let completed = List.fold_left (fun a c -> a + c.Realm.report.completed) 0 all in
  { attempted; failed = attempted - completed; failures;
    metrics = Obs.per_layer o }

(* --- session_hardened, and the probe loops of the other workloads --- *)

let role_of (tb : Attacks.Testbed.t) =
  let aps =
    List.map Sim.Host.primary_ip
      [ tb.Attacks.Testbed.file_host; tb.Attacks.Testbed.mail_host; tb.Attacks.Testbed.backup_host ]
  in
  let kdc = Attacks.Testbed.kdc_addr tb in
  fun a ->
    if Sim.Addr.equal a kdc then Tap.Kdc
    else if List.exists (Sim.Addr.equal a) aps then Tap.Ap
    else Tap.Client

(* One tapped loop of sessions on a fresh bed: its timings and cost, and
   what the tap and the bed's registry saw. *)
let tapped_loop ~seed profile =
  let b = Sessions.make ~seed profile in
  let tb = b.Sessions.tb in
  let tel = Sim.Net.telemetry tb.Attacks.Testbed.net in
  let s0 = Obs.snapshot tel and e0 = Sim.Engine.executed tb.Attacks.Testbed.eng in
  let tap =
    Tap.create ~engine:tb.Attacks.Testbed.eng ~kind:profile.Kerberos.Profile.encoding
      ~role_of:(role_of tb)
  in
  Tap.attach tb.Attacks.Testbed.net tap;
  let t, cost =
    Spans.around "kerberos.sessions.traced" (fun () ->
        Obs.measure (fun () -> Sessions.loop ~n:traced_sessions b))
  in
  (b, t, cost, tap, Obs.diff s0 (Obs.snapshot tel), Sim.Engine.executed tb.Attacks.Testbed.eng - e0)

(* Rounds of session loops, each on fresh beds: untraced, with the
   lightweight knob flipped, and tapped. *)
let sessions_traced ~seed profile =
  let untraced name =
    Spans.around name (fun () ->
        Spans.without (fun () ->
            Obs.measure (fun () -> Sessions.loop ~n:traced_sessions (Sessions.make ~seed profile))))
  in
  let tel = Telemetry.Collector.default () in
  let own_light = Telemetry.Collector.lightweight tel in
  let rounds =
    List.init traced_rounds (fun _ ->
        let base = untraced "kerberos.sessions.untraced" in
        Telemetry.Collector.set_lightweight tel (not own_light);
        let toggled = untraced "kerberos.sessions.lightweight_toggled" in
        Telemetry.Collector.set_lightweight tel own_light;
        (base, toggled, tapped_loop ~seed profile))
  in
  let (_, base), _, (b, _, traced, tap, reg, events) = List.hd rounds in
  let wall f = median_of (fun r -> (f r).Obs.wall_s) rounds in
  let base_s = wall (fun ((_, c), _, _) -> c) and toggled_s = wall (fun (_, (_, c), _) -> c) in
  let tb = b.Sessions.tb in
  let lookups = Kerberos.Kdb.shard_lookups tb.Attacks.Testbed.db in
  let c = tb.Attacks.Testbed.victim in
  let hits = Kerberos.Client.ccache_hits c and misses = Kerberos.Client.ccache_misses c in
  let cover = Tap.total_self_s tap /. traced.Obs.raw_s in
  let light_s, full_s = if own_light then (base_s, toggled_s) else (toggled_s, base_s) in
  let o =
    { Obs.profile; seed; exchanges = traced_sessions; events; tap; tap_pace = Obs.pace traced;
      reg; untraced = base;
      untraced_exchanges = traced_sessions;
      traced_s = wall (fun (_, _, (_, _, c, _, _, _)) -> c); trace_base_s = base_s; light_s; full_s;
      ccache_hit_frac = Obs.frac hits (hits + misses);
      kdb_lookups = Array.fold_left ( + ) 0 lookups; kdb_balance = max_over_mean lookups;
      lazy_materialized = Kerberos.Kdb.lazy_materialized tb.Attacks.Testbed.db;
      admission =
        { (Obs.admission_of_registry reg) with
          Obs.client_busy = Kerberos.Client.busy_received c;
          breaker_trips = Kerberos.Client.breaker_trips c;
          budget_exhausted = Kerberos.Client.budget_exhausted c } }
  in
  let timings =
    List.concat_map (fun ((t, _), (u, _), (_, x, _, _, _, _)) -> [ t; u; x ]) rounds
  in
  let fails = (Sessions.concat timings).Sessions.failures in
  let failures =
    session_failures fails
    @
    if cover >= tap_cover && cover <= 1.0 then []
    else [ Printf.sprintf "tap self times cover %.3f of the traced sessions" cover ]
  in
  (o, List.length timings * traced_sessions, List.length fails, failures)

let session_untraced ~seed ~seconds =
  let profile = Kerberos.Profile.hardened in
  let b = Sessions.make ~seed profile in
  (* Units of [session_batch] sessions, each timed whole. *)
  let batches =
    List.init (units ~seconds ~unit_s:0.7 ~min:2) (fun _ ->
        Clock.timed (fun () -> Sessions.loop ~n:session_batch b))
  in
  (* The testbed builds come after the sessions, on a grown heap: run
     first in a fresh process, their median moved by up to half from
     run to run while the heap grew. *)
  let setups =
    List.init bed_setups (fun _ ->
        Clock.paced_s (snd (Clock.timed (fun () -> Sessions.make ~seed profile))))
  in
  let sessions = Sessions.concat (List.map fst batches) in
  let failures, metrics =
    end_to_end ~setups
      ~units:(List.map (fun (_, iv) -> (session_batch, Clock.paced_s iv)) batches)
      ~sessions
      ~failures:(session_failures sessions.Sessions.failures)
  in
  { attempted = List.length sessions.Sessions.times;
    failed = List.length sessions.Sessions.failures;
    failures; metrics }

let session_traced ~seed =
  let o, attempted, failed, failures = sessions_traced ~seed Kerberos.Profile.hardened in
  { attempted; failed; failures; metrics = Obs.per_layer o }

(* --- login_storm --- *)

let storm_untraced ~seed ~seconds =
  let o = Storm.config seed in
  let setups =
    List.init storm_setups (fun _ ->
        Clock.paced_s (snd (Clock.timed (fun () -> Realm.setup_only o.Workloads.Loadgen.o_base))))
  in
  let sessions = probe ~seed Workloads.Loadgen.overload_profile in
  let suites =
    List.init (units ~seconds ~unit_s:6.8 ~min:1) (fun _ ->
        Clock.timed (fun () -> Workloads.Loadgen.run_overload o))
  in
  Printf.eprintf "suite wall s %s\n"
    (String.concat " " (List.map (fun (_, iv) -> Printf.sprintf "%.3f" (Clock.raw_s iv)) suites));
  let processed s = (Storm.admission s).Obs.processed in
  let failures, metrics =
    end_to_end ~setups
      ~units:(List.map (fun (s, iv) -> (processed s, Clock.paced_s iv)) suites)
      ~sessions
      ~failures:
        (List.concat_map (fun (s, _) -> Storm.check s) suites
        @ session_failures sessions.Sessions.failures)
  in
  let adm =
    List.fold_left (fun a (s, _) -> Obs.add_admission a (Storm.admission s)) Obs.no_admission suites
  in
  { attempted = adm.Obs.arrived + List.length sessions.Sessions.times;
    failed = adm.Obs.silent + List.length sessions.Sessions.failures;
    failures; metrics }

(* The storm's own counters, GC and DES costs, and telemetry share come
   from its suites; the per-exchange wire, sim and kerberos figures from
   traced probe sessions on the storm's profile, because
   [run_overload] exposes no network to tap. *)
let storm_traced ~seed =
  let open Workloads.Loadgen in
  let o = Storm.config seed in
  let toggled = { o with o_base = { o.o_base with lightweight = not o.o_base.lightweight } } in
  let suite name o = Spans.around name (fun () -> Obs.measure (fun () -> run_overload o)) in
  let rounds =
    List.init storm_rounds (fun _ ->
        (suite "storm.suite" o, suite "storm.suite.lightweight_toggled" toggled))
  in
  let (s, cost), _ = List.hd rounds in
  let suites = List.concat_map (fun (a, b) -> [ fst a; fst b ]) rounds in
  let base_s = median_of (fun ((_, c), _) -> c.Obs.wall_s) rounds
  and toggled_s = median_of (fun (_, (_, c)) -> c.Obs.wall_s) rounds in
  let adm = Storm.admission s in
  let probe, pattempted, pfailed, pfailures = sessions_traced ~seed overload_profile in
  let light_s, full_s = if o.o_base.lightweight then (base_s, toggled_s) else (toggled_s, base_s) in
  let probe =
    { probe with
      Obs.untraced = cost; untraced_exchanges = adm.Obs.processed; light_s; full_s;
      admission = adm }
  in
  let all = List.fold_left (fun a s -> Obs.add_admission a (Storm.admission s)) Obs.no_admission suites in
  { attempted = all.Obs.arrived + pattempted;
    failed = all.Obs.silent + pfailed;
    failures = List.concat_map Storm.check suites @ pfailures;
    metrics = Obs.per_layer probe }

(* --- entry point --- *)

let workloads = [ "realm_1m"; "realm_eager"; "login_storm"; "session_hardened" ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result r =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failures = [] && r.failed = 0)
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let out_dir = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " how long the run measures, on an unloaded host");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--out-dir", Arg.Set_string out_dir, " where a traced run writes its spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 [--out-dir D]";
  if not (List.mem !workload workloads) || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
    exit 2
  end;
  let seed64 = Int64.of_int !seed and secs = float_of_int !seconds in
  let traced = !trace = 1 in
  Spans.enabled := traced;
  Clock.start_sampling ();
  (match Stats.self_check () with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Printf.eprintf "benchmark self-check failed: %s\n" f) fs;
      exit 3);
  let r =
    Spans.around !workload (fun () ->
        match !workload, traced with
        | "realm_1m", false -> realm_untraced (Realm.realm_1m seed64) ~seconds:secs ~unit_s:1.5
        | "realm_eager", false ->
            realm_untraced (Realm.realm_eager seed64) ~seconds:secs ~unit_s:2.2
        | "login_storm", false -> storm_untraced ~seed:seed64 ~seconds:secs
        | "session_hardened", false -> session_untraced ~seed:seed64 ~seconds:secs
        | "realm_1m", true -> realm_traced (Realm.realm_1m seed64)
        | "realm_eager", true -> realm_traced (Realm.realm_eager seed64)
        | "login_storm", true -> storm_traced ~seed:seed64
        | "session_hardened", true -> session_traced ~seed:seed64
        | _ -> assert false)
  in
  Clock.stop_sampling ();
  Printf.eprintf "host_ref_ns %.0f over %d samples\n" (Clock.host_ref_ns ()) !Clock.samples;
  List.iter (fun f -> Printf.eprintf "check failed: %s\n" f) r.failures;
  if traced && !out_dir <> "" then
    Spans.write (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
  print_result r;
  if r.failures <> [] || r.failed <> 0 then exit 1
