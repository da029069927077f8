open Kerberos

type result = { command : string; executions : int }

let command = "DELETE /u/pat/backup.1"

let run ?(seed = 0xE7L) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/u/pat/backup.1"
    (Bytes.of_string "v1");
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/u/pat/backup.2"
    (Bytes.of_string "v2");
  let chan_b = ref None in
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      ignore (Testbed.expect "login" r);
      Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
          let creds = Testbed.expect "ticket" r in
          (* Two concurrent sessions under the same ticket. *)
          Client.ap_exchange bed.victim creds ~dst:(Sim.Host.primary_ip bed.file_host)
            ~dport:bed.file_port (fun r ->
              let a = Testbed.expect "ap A" r in
              Client.ap_exchange bed.victim creds
                ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                (fun r ->
                  let b = Testbed.expect "ap B" r in
                  chan_b := Some b;
                  (* The destructive command goes out on session A. *)
                  Client.call_priv bed.victim a (Bytes.of_string command)
                    ~k:(fun r -> ignore (Testbed.expect "delete" r))))));
  Testbed.run bed;
  (* The adversary picks session A's priv request off the wire and replays
     it into session B by rewriting only the (cleartext) source port. *)
  let priv_reqs =
    Sim.Adversary.capture_matching bed.adv (fun p ->
        p.Sim.Packet.dport = bed.file_port
        &&
        match Frames.unwrap p.Sim.Packet.payload with
        | Some (k, _) -> k = Frames.priv
        | None -> false)
  in
  (match (priv_reqs, !chan_b) with
  | pkt :: _, Some _ ->
      (* Session B's client-side port: the adversary read it off the AP
         exchange for session B (the second ap_req source port). *)
      let ap_ports =
        Sim.Adversary.capture_matching bed.adv (fun p ->
            p.Sim.Packet.dport = bed.file_port
            &&
            match Frames.unwrap p.Sim.Packet.payload with
            | Some (k, _) -> k = Frames.ap_req
            | None -> false)
        |> List.map (fun p -> p.Sim.Packet.sport)
      in
      let b_port = List.nth ap_ports 1 in
      Sim.Adversary.spoof bed.adv ~src:pkt.Sim.Packet.src ~sport:b_port
        ~dst:pkt.Sim.Packet.dst ~dport:bed.file_port pkt.Sim.Packet.payload
  | _ -> failwith "cross_session: capture failed");
  Testbed.run bed;
  let executions =
    List.length
      (List.filter (fun (c, _) -> c = command) (Services.Fileserver.request_log bed.file))
  in
  { command; executions }

let outcome r =
  if r.executions > 1 then
    Outcome.broken "command executed %d times: session-A ciphertext accepted in session B"
      r.executions
  else
    Outcome.defended
      "replayed ciphertext rejected in the second session (distinct key or sequence state)"
