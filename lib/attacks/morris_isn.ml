open Kerberos

type result = {
  isn_predictable : bool;
  handshake_completed : bool;
  executed_as_victim : bool;
}

let rsh_port = 514
let evil_command = "echo darkstar.mit.edu robin >> /u/pat/.rhosts"

let run ?(seed = 0xE8BL) ?(isn = Sim.Tcpish.Predictable) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  let rsh_principal = Principal.service ~realm:"ATHENA" "rsh" ~host:"fs1" in
  let rsh_key = Crypto.Des.random_key bed.rng in
  Kdb.add_service bed.db rsh_principal ~key:rsh_key;
  let daemon =
    Services.Rsh.install bed.net bed.file_host ~profile ~principal:rsh_principal
      ~key:rsh_key ~port:rsh_port ~isn ()
  in
  (* The victim uses rsh legitimately, exposing a live authenticator. *)
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      ignore (Testbed.expect "login" r);
      Client.get_ticket bed.victim ~service:rsh_principal (fun r ->
          let creds = Testbed.expect "rsh ticket" r in
          Services.Rsh.run_command bed.victim creds
            ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:rsh_port ~cmd:"ls"
            ~k:(fun r -> ignore (Testbed.expect "rsh run" r))));
  Testbed.run bed;
  (* Steal the AP_REQ frame from the victim's session (the first non-empty
     data segment to the rsh port). *)
  let ap_frame =
    List.find_map
      (fun p ->
        match Sim.Tcpish.decode_segment p.Sim.Packet.payload with
        | Some seg
          when Bytes.length seg.Sim.Tcpish.body > 0 && p.Sim.Packet.dport = rsh_port
          -> (
            match Frames.unwrap seg.Sim.Tcpish.body with
            | Some (k, _) when k = Frames.ap_req -> Some seg.Sim.Tcpish.body
            | _ -> None)
        | _ -> None)
      (Sim.Adversary.captured bed.adv)
  in
  let ap_frame =
    match ap_frame with
    | Some b -> b
    | None -> failwith "morris: no authenticator captured"
  in
  (* The blind, one-way conversation. Every packet is spoofed from the
     victim's address; nothing the server sends back ever reaches us. *)
  let srv = Sim.Host.primary_ip bed.file_host in
  let vic = Testbed.victim_addr bed in
  let sport = 40777 in
  let my_isn = 5000 in
  let seg ?(syn = false) ?(ack = false) ~seq ~ackno body =
    Sim.Tcpish.encode_segment
      { Sim.Tcpish.syn; ack; fin = false; rst = false; seq; ackno; body }
  in
  let spoof payload =
    Sim.Adversary.spoof bed.adv ~src:vic ~sport ~dst:srv ~dport:rsh_port payload
  in
  let lat = 0.005 in
  (* Predict NOW what ISN the server will pick when the SYN arrives. *)
  let predicted = Sim.Tcpish.predict_isn bed.net isn in
  spoof (seg ~syn:true ~seq:my_isn ~ackno:0 Bytes.empty);
  Sim.Engine.schedule_after bed.eng (3.0 *. lat) (fun () ->
      spoof (seg ~ack:true ~seq:(my_isn + 1) ~ackno:((predicted + 1) land 0x7FFFFFFF) Bytes.empty));
  Sim.Engine.schedule_after bed.eng (5.0 *. lat) (fun () ->
      spoof (seg ~seq:(my_isn + 1) ~ackno:0 ap_frame));
  Sim.Engine.schedule_after bed.eng (7.0 *. lat) (fun () ->
      spoof
        (seg ~seq:((my_isn + 1 + Bytes.length ap_frame) land 0x7FFFFFFF) ~ackno:0
           (Bytes.of_string evil_command)));
  Testbed.run bed;
  let executed =
    List.exists
      (fun (cmd, who) -> cmd = evil_command && who = "pat@ATHENA")
      (Services.Rsh.executed daemon)
  in
  (* Handshake completion is visible in whether the AP_REQ was even
     processed — approximate: executed implies completed; otherwise check
     the rsh log for any extra entries. *)
  { isn_predictable = (isn = Sim.Tcpish.Predictable);
    handshake_completed = executed;
    executed_as_victim = executed }

let outcome r =
  if r.executed_as_victim then
    Outcome.broken
      "blind spoofed connection + stolen live authenticator: command ran as the victim"
  else if r.isn_predictable then
    Outcome.defended "handshake completed blind but the protocol demanded a challenge"
  else Outcome.defended "random ISN: the blind ACK guessed wrong"
