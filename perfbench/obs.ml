(* What one run observed, and the metrics it reports. *)

(* Process-wide costs of one unit of work: its time, GC and DES
   counters, read before and after it. *)
type cost = {
  wall_s : float;  (** host-paced ({!Clock.paced_s}) *)
  raw_s : float;  (** wall time *)
  minor : float;
  promoted : float;
  major : int;
  des_blocks : int;
  des_schedules : int;
}

type mark = { g : Gc.stat; blocks : int; schedules : int; t0 : int64 }

let mark () =
  { g = Gc.quick_stat (); blocks = Crypto.Des.blocks_performed ();
    schedules = Crypto.Des.schedules_performed (); t0 = Clock.now_ns () }

let since m =
  let iv = Clock.interval_since m.t0 in
  let g = Gc.quick_stat () in
  { wall_s = Clock.paced_s iv;
    raw_s = Clock.raw_s iv;
    minor = g.Gc.minor_words -. m.g.Gc.minor_words;
    promoted = g.Gc.promoted_words -. m.g.Gc.promoted_words;
    major = g.Gc.major_collections - m.g.Gc.major_collections;
    des_blocks = Crypto.Des.blocks_performed () - m.blocks;
    des_schedules = Crypto.Des.schedules_performed () - m.schedules }

let measure f =
  let m = mark () in
  let r = f () in
  (r, since m)

(* Paced over wall time: scales a wall time taken inside the unit. *)
let pace c = if c.raw_s > 0.0 then c.wall_s /. c.raw_s else 1.0

(* Admission-plane outcomes: a login_storm row's counters, or the KDC
   registry's [admission.*] families elsewhere. *)
type admission = {
  arrived : int;
  processed : int;
  busy : int;
  brownout : int;
  deadline : int;
  silent : int;
  client_busy : int;
  breaker_trips : int;
  budget_exhausted : int;
}

let no_admission =
  { arrived = 0; processed = 0; busy = 0; brownout = 0; deadline = 0; silent = 0;
    client_busy = 0; breaker_trips = 0; budget_exhausted = 0 }

let add_admission a b =
  { arrived = a.arrived + b.arrived; processed = a.processed + b.processed;
    busy = a.busy + b.busy; brownout = a.brownout + b.brownout;
    deadline = a.deadline + b.deadline; silent = a.silent + b.silent;
    client_busy = a.client_busy + b.client_busy;
    breaker_trips = a.breaker_trips + b.breaker_trips;
    budget_exhausted = a.budget_exhausted + b.budget_exhausted }

(* A registry's counters, span count and trace-event count, so a unit's
   share of a long-lived collector is a difference of two snapshots. *)
type snapshot = {
  counters : (string * int) list;
  spans : int;
  trace_events : int;
}

let snapshot tel =
  let spans =
    List.fold_left
      (fun a (name, h) ->
        if Registry.starts_with ~prefix:"span." name then a + Telemetry.Metrics.hist_count h
        else a)
      0 (Telemetry.Metrics.histograms (Telemetry.Collector.metrics tel))
  in
  let tr = Telemetry.Collector.trace tel in
  { counters = Registry.counters tel;
    spans;
    trace_events = Telemetry.Trace.length tr + Telemetry.Trace.dropped tr }

let count s name = Option.value ~default:0 (List.assoc_opt name s.counters)

let diff a b =
  { counters = List.map (fun (n, v) -> (n, v - count a n)) b.counters;
    spans = b.spans - a.spans;
    trace_events = b.trace_events - a.trace_events }

let sum_where s p = List.fold_left (fun a (n, v) -> if p n then a + v else a) 0 s.counters

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let sum_suffix s suffix = sum_where s (ends_with ~suffix)

let admission_of_registry s =
  let arrived = sum_suffix s ".admission.arrived"
  and processed = sum_suffix s ".admission.processed"
  and busy = sum_suffix s ".admission.busy_rejections"
  and brownout = sum_suffix s ".admission.brownout_sheds"
  and deadline = sum_suffix s ".admission.deadline_sheds" in
  { no_admission with
    arrived; processed; busy; brownout; deadline;
    silent = arrived - processed - busy - brownout - deadline }

(* The traced run's observations. The per-exchange wire, sim and
   kerberos figures come from the traced unit of work (a campaign, or a
   loop of sessions); GC and DES figures from an untraced run of the
   workload's own unit, so the tap's allocations are not counted. *)
type traced = {
  profile : Kerberos.Profile.t;
  seed : int64;
  exchanges : int;  (** completed in the traced unit *)
  events : int;  (** engine events of the traced unit *)
  tap : Tap.t;
  tap_pace : float;  (** {!pace} of the tapped unit, for the tap's wall times *)
  reg : snapshot;  (** the traced unit's registry delta *)
  untraced : cost;
  untraced_exchanges : int;
  traced_s : float;
  trace_base_s : float;  (** the traced unit's work, run untraced *)
  light_s : float;  (** the workload's unit with lightweight telemetry *)
  full_s : float;  (** ... and with full telemetry *)
  ccache_hit_frac : float;
  kdb_lookups : int;
  kdb_balance : float;
  lazy_materialized : int;
  admission : admission;
}

let per x n = if n <= 0 then 0.0 else x /. float_of_int n
let frac a b = if b <= 0 then 0.0 else float_of_int a /. float_of_int b

(* Every per-layer metric, in BENCHMARK.json's order: (name, value, unit). *)
let per_layer (o : traced) =
  let t = o.tap and ex = o.exchanges in
  let fi = float_of_int in
  let udp = sum_where o.reg (fun n -> n = "transport.udp.calls")
  and tcp = sum_where o.reg (fun n -> n = "transport.tcp.calls") in
  let mean_packet = if t.Tap.packets = 0 then 64 else t.Tap.bytes / t.Tap.packets in
  let decode_ns, encode_ns, decode_failures =
    Spans.around "wire.timed_codec" (fun () ->
        Layers.wire ~kind:o.profile.Kerberos.Profile.encoding (Tap.captured t))
  in
  let group_bits =
    if o.profile.Kerberos.Profile.dh_group_bits > 0 then o.profile.Kerberos.Profile.dh_group_bits
    else Kerberos.Profile.hardened.Kerberos.Profile.dh_group_bits
  in
  let a = o.admission in
  [ ("sim.events_per_exchange", per (fi o.events) ex, "count");
    ( "sim.engine_ns_per_event",
      Spans.around "sim.timed_engine" (fun () ->
          Layers.engine_ns_per_event ~events:o.events ~depth:t.Tap.pending_max),
      "ns" );
    ("sim.pending_max", fi t.Tap.pending_max, "count");
    ("sim.packets_per_exchange", per (fi t.Tap.packets) ex, "count");
    ("sim.dropped", fi (count o.reg "net.packets.dropped"), "count");
    ("sim.tcp_fallback_frac", frac tcp (udp + tcp), "ratio");
    ("wire.bytes_per_exchange", per (fi t.Tap.bytes) ex, "B");
    ("wire.decode_ns_per_msg", decode_ns, "ns");
    ("wire.encode_ns_per_msg", encode_ns, "ns");
    ("wire.decode_failures", fi decode_failures, "count");
    ("crypto.des_blocks_per_exchange", per (fi o.untraced.des_blocks) o.untraced_exchanges, "count");
    ( "crypto.des_schedules_per_exchange",
      per (fi o.untraced.des_schedules) o.untraced_exchanges, "count" );
    ( "crypto.des_block_ns",
      Spans.around "crypto.timed_des" (fun () -> Layers.des_block_ns ~msg_bytes:mean_packet),
      "ns" );
    ( "crypto.modexp_us",
      Spans.around "crypto.timed_modexp" (fun () -> Layers.modexp_us ~bits:group_bits),
      "us" );
    ( "crypto.str2key_us",
      Spans.around "crypto.timed_str2key" (fun () -> Layers.str2key_us ~seed:o.seed),
      "us" );
    ("kerberos.kdc_self_us", Tap.self_us t Tap.Kdc *. o.tap_pace, "us");
    ("kerberos.kdc_words", Tap.words_per_send t Tap.Kdc, "words");
    ("kerberos.ap_self_us", Tap.self_us t Tap.Ap *. o.tap_pace, "us");
    ("kerberos.ap_words", Tap.words_per_send t Tap.Ap, "words");
    ("kerberos.client_self_us", Tap.self_us t Tap.Client *. o.tap_pace, "us");
    ("kerberos.client_words", Tap.words_per_send t Tap.Client, "words");
    ("kerberos.kdc_requests_per_exchange", per (fi t.Tap.to_kdc) ex, "count");
    ("kerberos.ccache_hit_frac", o.ccache_hit_frac, "ratio");
    ("kerberos.kdb_lookups_per_exchange", per (fi o.kdb_lookups) ex, "count");
    ("kerberos.kdb_lookup_balance", o.kdb_balance, "ratio");
    ("kerberos.lazy_materialized", fi o.lazy_materialized, "count");
    ( "kerberos.admission_processed_frac",
      (if a.arrived = 0 then 1.0 else frac a.processed a.arrived),
      "ratio" );
    ("kerberos.busy_rejections", fi a.busy, "count");
    ("kerberos.brownout_sheds", fi a.brownout, "count");
    ("kerberos.deadline_sheds", fi a.deadline, "count");
    ("kerberos.silent_drops", fi a.silent, "count");
    ("kerberos.client_busy_received", fi a.client_busy, "count");
    ("kerberos.breaker_trips", fi a.breaker_trips, "count");
    ("kerberos.budget_exhausted", fi a.budget_exhausted, "count");
    ("telemetry.spans_per_exchange", per (fi o.reg.spans) ex, "count");
    ("telemetry.trace_events_per_exchange", per (fi o.reg.trace_events) ex, "count");
    ("telemetry.full_share", (if o.full_s > 0.0 then 1.0 -. (o.light_s /. o.full_s) else 0.0), "ratio");
    ("runtime.minor_words_per_exchange", per o.untraced.minor o.untraced_exchanges, "words");
    ("runtime.promoted_words_per_exchange", per o.untraced.promoted o.untraced_exchanges, "words");
    ("runtime.major_collections", fi o.untraced.major, "count");
    ("runtime.host_ref_ns", Clock.host_ref_ns (), "ns");
    ( "runtime.trace_overhead_frac",
      (if o.trace_base_s > 0.0 then (o.traced_s /. o.trace_base_s) -. 1.0 else 0.0),
      "ratio" ) ]
