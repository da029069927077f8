open Kerberos

type result = {
  legit_multihomed_works : bool;
  spoofed_source_accepted : bool;
  addr_in_ticket : bool;
}

let run ?(seed = 0xE8CL) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  (* A router-ish machine with two interfaces. *)
  let gw =
    Sim.Host.create ~name:"gateway"
      ~ips:[ Sim.Addr.of_quad 10 0 0 60; Sim.Addr.of_quad 10 1 0 60 ] ()
  in
  Sim.Net.attach bed.net gw;
  Kdb.add_user bed.db (Principal.user ~realm:"ATHENA" "gwadmin") ~password:"gw.pw";
  let gw_client =
    Client.create ~seed:21L bed.net gw ~profile
      ~kdcs:[ ("ATHENA", Testbed.kdc_addr bed) ]
      (Principal.user ~realm:"ATHENA" "gwadmin")
  in
  (* Log in and fetch the service ticket from interface 1 (the primary),
     then force the AP exchange out of interface 2 by rewriting the source
     in flight (a routing change, not an attack). *)
  let legit_ok = ref false in
  Client.login gw_client ~password:"gw.pw" (fun r ->
      ignore (Testbed.expect "gw login" r);
      Client.get_ticket gw_client ~service:bed.file_principal (fun r ->
          let creds = Testbed.expect "gw ticket" r in
          Sim.Adversary.intercept bed.adv (fun p ->
              (* benign interceptor standing in for an internal route flap *)
              if
                p.Sim.Packet.src = Sim.Addr.of_quad 10 0 0 60
                && p.Sim.Packet.dport = bed.file_port
              then
                Sim.Net.Replace
                  [ { p with Sim.Packet.src = Sim.Addr.of_quad 10 1 0 60 } ]
              else Sim.Net.Deliver);
          Client.ap_exchange gw_client creds ~dst:(Sim.Host.primary_ip bed.file_host)
            ~dport:bed.file_port (fun r -> legit_ok := Result.is_ok r)));
  Testbed.run bed;
  Sim.Adversary.stop_intercepting bed.adv;
  (* Now the attacker side: replay the victim's AP_REQ with a spoofed
     source equal to the bound address. The check costs the attacker one
     header field. *)
  Testbed.victim_mail_session bed ();
  Testbed.run bed;
  let before = Apserver.sessions_established (Services.Mailserver.apserver bed.mail) in
  (match
     Sim.Adversary.capture_matching bed.adv (fun p ->
         p.Sim.Packet.dport = bed.mail_port
         &&
         match Frames.unwrap p.Sim.Packet.payload with
         | Some (k, _) -> k = Frames.ap_req
         | None -> false)
   with
  | pkt :: _ ->
      Sim.Adversary.spoof bed.adv ~src:(Testbed.victim_addr bed) ~sport:46000
        ~dst:(Sim.Host.primary_ip bed.mail_host) ~dport:bed.mail_port
        pkt.Sim.Packet.payload
  | [] -> failwith "addr_binding: no AP_REQ captured");
  Testbed.run bed;
  let after = Apserver.sessions_established (Services.Mailserver.apserver bed.mail) in
  { legit_multihomed_works = !legit_ok;
    spoofed_source_accepted = after > before;
    addr_in_ticket = profile.Profile.addr_in_ticket }

let outcome r =
  match (r.addr_in_ticket, r.legit_multihomed_works, r.spoofed_source_accepted) with
  | true, false, true ->
      Outcome.broken
        "address binding broke the multi-homed host yet cost the attacker one forged header"
  | true, false, false ->
      Outcome.defended
        "address binding broke legitimate multi-homed use (and the replay died on other checks)"
  | _, true, true ->
      Outcome.broken "no address check, replayed authenticator accepted (other defenses off)"
  | _, true, false -> Outcome.defended "multi-homed use works; replay stopped elsewhere"
  | false, false, _ -> Outcome.defended "multi-homed use failed for non-address reasons"
