open Kerberos

type result = {
  age_at_replay : float;
  clock_rewound : bool;
  accepted : bool;
  authenticated_time : bool;
}

let run ?(seed = 0xE2L) ?(age = 3600.0) ?(authenticated_time = false) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  let time_key = Bytes.of_string "mail+time shared" in
  if authenticated_time then
    Timesvc.install_authenticated_server bed.net bed.time_host ~port:38 ~key:time_key ();
  (* Victim authenticates to the mail server once; the AP_REQ is captured. *)
  Testbed.victim_mail_session bed ();
  Testbed.run bed;
  let honest = Apserver.sessions_established (Services.Mailserver.apserver bed.mail) in
  let ap_req =
    match
      Sim.Adversary.capture_matching bed.adv (fun p ->
          p.Sim.Packet.dport = bed.mail_port
          &&
          match Frames.unwrap p.Sim.Packet.payload with
          | Some (k, _) -> k = Frames.ap_req
          | None -> false)
    with
    | pkt :: _ -> pkt
    | [] -> failwith "clock_spoof: nothing captured"
  in
  let capture_time = Sim.Engine.now bed.eng in
  (* An hour passes; the authenticator is now thoroughly stale. *)
  Testbed.run_for bed age;
  (* The adversary rewinds whatever time reply the server receives to the
     capture instant. *)
  Sim.Adversary.intercept bed.adv (fun p ->
      if p.Sim.Packet.sport = Timesvc.default_port || p.Sim.Packet.sport = 38 then begin
        let fake = Bytes.copy p.Sim.Packet.payload in
        Bytes.set_int64_be fake 0 (Int64.bits_of_float capture_time);
        Sim.Net.Replace [ { p with Sim.Packet.payload = fake } ]
      end
      else Sim.Net.Deliver);
  let sync_done = ref false in
  if authenticated_time then
    Timesvc.sync_authenticated bed.net bed.mail_host ~port:38 ~key:time_key
      ~server:(Sim.Host.primary_ip bed.time_host)
      ~on_done:(fun _ -> sync_done := true)
      ()
  else
    Timesvc.sync bed.net bed.mail_host ~server:(Sim.Host.primary_ip bed.time_host)
      ~on_done:(fun () -> sync_done := true)
      ();
  Testbed.run bed;
  Sim.Adversary.stop_intercepting bed.adv;
  let real = Sim.Engine.now bed.eng in
  let clock_rewound =
    Sim.Host.local_time bed.mail_host ~real < real -. (age /. 2.0)
  in
  (* Replay the stale authenticator. *)
  Sim.Adversary.spoof bed.adv ~src:(Testbed.victim_addr bed) ~sport:45001
    ~dst:(Sim.Host.primary_ip bed.mail_host) ~dport:bed.mail_port
    ap_req.Sim.Packet.payload;
  Testbed.run bed;
  let total = Apserver.sessions_established (Services.Mailserver.apserver bed.mail) in
  { age_at_replay = age; clock_rewound; accepted = total > honest; authenticated_time }

let outcome r =
  if r.accepted then
    Outcome.broken "server clock rewound by time-service spoof; %.0fs-old authenticator accepted"
      r.age_at_replay
  else if r.authenticated_time && not r.clock_rewound then
    Outcome.defended "time forgery detected by MAC; stale authenticator rejected"
  else
    Outcome.defended "stale authenticator rejected"
