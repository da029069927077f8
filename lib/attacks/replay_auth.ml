open Kerberos

type result = {
  replay_delay : float;
  skew : float;
  accepted : bool;
  honest_sessions : int;
  total_sessions : int;
}

let run ?(seed = 0xE1L) ?(delay = 30.0) ?(skew = 300.0) ~profile () =
  (* The skew knob overrides the profile's own window as well as the
     server's, so the sweep measures exactly one acceptance window. *)
  let profile =
    match profile.Profile.ap_auth with
    | Profile.Timestamp { replay_cache; _ } ->
        { profile with Profile.ap_auth = Profile.Timestamp { skew; replay_cache } }
    | Profile.Challenge_response -> profile
  in
  let bed =
    Testbed.make ~seed
      ~server_config:{ Apserver.default_config with skew }
      ~profile ()
  in
  Sim.Adversary.start_tap bed.adv;
  (* Victim does a quick mail check; adversary is already tapping. *)
  Testbed.victim_mail_session bed ();
  Testbed.run bed;
  let honest = Apserver.sessions_established (Services.Mailserver.apserver bed.mail) in
  (* Hunt the capture for the AP_REQ to the mail port. *)
  let ap_reqs =
    Sim.Adversary.capture_matching bed.adv (fun p ->
        p.Sim.Packet.dport = bed.mail_port
        &&
        match Frames.unwrap p.Sim.Packet.payload with
        | Some (k, _) -> k = Frames.ap_req
        | None -> false)
  in
  (match ap_reqs with
  | [] -> failwith "replay_auth: nothing captured"
  | pkt :: _ ->
      Sim.Engine.schedule_after bed.eng delay (fun () ->
          (* Replayed from the attacker's machine and port; only the
             payload is the victim's. (Under V4 the ticket binds the
             victim's address, so the source address is spoofed too —
             trivial for datagrams.) *)
          Sim.Adversary.spoof bed.adv ~src:(Testbed.victim_addr bed) ~sport:45000
            ~dst:(Sim.Host.primary_ip bed.mail_host) ~dport:bed.mail_port
            pkt.Sim.Packet.payload));
  Testbed.run bed;
  let total = Apserver.sessions_established (Services.Mailserver.apserver bed.mail) in
  { replay_delay = delay; skew; accepted = total > honest; honest_sessions = honest;
    total_sessions = total }

let outcome r =
  if r.accepted then
    Outcome.broken
      "authenticator replayed %.0fs later accepted (skew window %.0fs, no cache)"
      r.replay_delay r.skew
  else
    Outcome.defended "replay %.0fs later rejected (window %.0fs)" r.replay_delay r.skew
