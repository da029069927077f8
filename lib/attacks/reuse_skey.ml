open Kerberos

type result = {
  applicable : bool;
  archive_destroyed : bool;
  believed_principal : string option;
}

let path = "/u/pat/draft"

let run ?(seed = 0xE11L) ?server_config ~profile () =
  if not profile.Profile.allow_reuse_skey then
    { applicable = false; archive_destroyed = false; believed_principal = None }
  else begin
    let bed = Testbed.make ~seed ?server_config ~profile () in
    Sim.Adversary.start_tap bed.adv;
    let backup_refused = ref false in
    Services.Backupserver.archive bed.backup ~path (Bytes.of_string "precious archive");
    Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path
      (Bytes.of_string "scratch copy");
    Client.login bed.victim ~password:bed.victim_password (fun r ->
        ignore (Testbed.expect "login" r);
        Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
            let t1 = Testbed.expect "file ticket" r in
            (* Multicast-style: the backup ticket reuses T1's session key. *)
            Client.get_ticket bed.victim
              ~options:{ Messages.no_options with reuse_skey = true }
              ~additional_ticket:t1.Client.ticket ~service:bed.backup_principal
              (fun r ->
                let t2 = Testbed.expect "backup ticket (reuse-skey)" r in
                Client.ap_exchange bed.victim t1
                  ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                  (fun r ->
                    let file_chan = Testbed.expect "file ap" r in
                    Client.ap_exchange bed.victim t2
                      ~dst:(Sim.Host.primary_ip bed.backup_host)
                      ~dport:bed.backup_port (fun r ->
                        (match r with
                        | Error _ ->
                            (* A server obeying Draft 3's DUPLICATE-SKEY
                               warning refuses the shared-key ticket; the
                               redirect has no session to land in. *)
                            backup_refused := true
                        | Ok _backup_chan -> ());
                        (* Victim tidies up its scratch copy on the FILE server. *)
                        Client.call_priv bed.victim file_chan
                          (Bytes.of_string ("DELETE " ^ path)) ~k:(fun r ->
                            ignore (Testbed.expect "file delete" r)))))));
    Testbed.run bed;
    (* Adversary: find the backup session's client port (second AP_REQ),
       then re-aim the captured file-server DELETE at the backup server. *)
    let ap_ports =
      Sim.Adversary.capture_matching bed.adv (fun p ->
          (p.Sim.Packet.dport = bed.backup_port)
          &&
          match Frames.unwrap p.Sim.Packet.payload with
          | Some (k, _) -> k = Frames.ap_req
          | None -> false)
      |> List.map (fun p -> p.Sim.Packet.sport)
    in
    (match ap_ports with
    | [] -> failwith "reuse_skey: no backup AP attempt observed"
    | bport :: _ ->
        let deletes =
          Sim.Adversary.capture_matching bed.adv (fun p ->
              p.Sim.Packet.dport = bed.file_port
              &&
              match Frames.unwrap p.Sim.Packet.payload with
              | Some (k, body) -> k = Frames.priv && Bytes.length body > 24
              | None -> false)
        in
        (match deletes with
        | pkt :: _ ->
            Sim.Adversary.spoof bed.adv ~src:pkt.Sim.Packet.src ~sport:bport
              ~dst:(Sim.Host.primary_ip bed.backup_host) ~dport:bed.backup_port
              pkt.Sim.Packet.payload
        | [] -> failwith "reuse_skey: no priv request captured"));
    Testbed.run bed;
    match Services.Backupserver.destroyed bed.backup with
    | (p, who) :: _ when p = path ->
        { applicable = true; archive_destroyed = true; believed_principal = Some who }
    | _ ->
        { applicable = true; archive_destroyed = false;
          believed_principal = (if !backup_refused then Some "(no session: DUPLICATE-SKEY refused)" else None) }
  end

let outcome r =
  if not r.applicable then Outcome.not_applicable "REUSE-SKEY option disabled"
  else if r.archive_destroyed then
    Outcome.broken "file-server DELETE redirected; archive destroyed as %s"
      (Option.value r.believed_principal ~default:"?")
  else Outcome.defended "redirected request rejected by the backup server"
