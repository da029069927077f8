open Kerberos

type result = {
  pages_captured : int;
  tgt_recovered : bool;
  impersonation_worked : bool;
}

let swap_port = 2050

let run ?(seed = 0xE18L) ?(pinned_memory = false) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  (* The victim's workstation is diskless: it pages to the file host. A
     page-out is an ordinary cleartext datagram with the page contents. *)
  let swap_sport = Sim.Net.ephemeral_port bed.net in
  if not pinned_memory then
    bed.victim_ws.Sim.Host.on_cache_write <-
      Some
        (fun label blob ->
          let w = Wire.Codec.Writer.create () in
          Wire.Codec.Writer.lstring w label;
          Wire.Codec.Writer.lbytes w blob;
          Sim.Net.send bed.net ~sport:swap_sport
            ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:swap_port bed.victim_ws
            (Wire.Codec.Writer.contents w));
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/u/pat/mail"
    (Bytes.of_string "private correspondence");
  Testbed.login_victim bed;
  (* The wiretapper sifts the page-outs for credential-cache pages. *)
  let pages =
    Sim.Adversary.capture_matching bed.adv (fun p -> p.Sim.Packet.dport = swap_port)
  in
  let tgt_blob =
    List.find_map
      (fun p ->
        match
          let r = Wire.Codec.Reader.of_bytes p.Sim.Packet.payload in
          let label = Wire.Codec.Reader.lstring r in
          let blob = Wire.Codec.Reader.lbytes r in
          (label, blob)
        with
        | "tgt", blob -> Some blob
        | _ -> None
        | exception Wire.Codec.Decode_error _ -> None)
      pages
  in
  let worked = ref false in
  (match tgt_blob with
  | None -> ()
  | Some blob -> (
      let creds = Client.creds_of_bytes blob in
      match (profile.Profile.addr_in_ticket, profile.Profile.ap_auth) with
      | false, _ ->
          (* No address in the ticket: just use it from the attacker's
             machine like any client would. *)
          let masquerade =
            Client.create ~seed:93L bed.net bed.attacker_host ~profile
              ~kdcs:[ ("ATHENA", Testbed.kdc_addr bed) ]
              (Principal.user ~realm:"ATHENA" "pat")
          in
          Client.adopt_tgt masquerade creds;
          Client.get_ticket masquerade ~service:bed.file_principal (fun r ->
              match r with
              | Error _ -> ()
              | Ok svc ->
                  Client.ap_exchange masquerade svc
                    ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                    (fun r ->
                      match r with
                      | Error _ -> ()
                      | Ok chan ->
                          Client.call_priv masquerade chan
                            (Bytes.of_string "READ /u/pat/mail") ~k:(fun r ->
                              worked := Result.is_ok r)))
      | true, Profile.Timestamp _ ->
          (* V4's address binding: forge the victim's source address and
             read every reply off the tap — "no extra security is gained by
             relying on the network address". *)
          let stolen =
            { Spoofed_client.s_client = Principal.user ~realm:"ATHENA" "pat";
              s_ticket = creds.Client.ticket; s_session_key = creds.Client.session_key }
          in
          Spoofed_client.get_service_ticket bed ~spoof_addr:(Testbed.victim_addr bed)
            ~tgt:stolen ~service:bed.file_principal ~k:(fun r ->
              match r with
              | Error _ -> ()
              | Ok svc ->
                  Spoofed_client.call_priv_as bed
                    ~spoof_addr:(Testbed.victim_addr bed)
                    ~client:(Principal.user ~realm:"ATHENA" "pat") ~creds:svc
                    ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                    (Bytes.of_string "READ /u/pat/mail")
                    ~k:(fun r -> worked := Result.is_ok r))
      | true, Profile.Challenge_response -> ()));
  Testbed.run bed;
  { pages_captured = List.length pages;
    tgt_recovered = tgt_blob <> None;
    impersonation_worked = !worked }

let outcome r =
  if r.impersonation_worked then
    Outcome.broken "TGT reassembled from %d cleartext page-out(s); victim impersonated"
      r.pages_captured
  else if r.pages_captured = 0 then
    Outcome.defended "keys pinned in local memory; nothing paged over the wire"
  else if r.tgt_recovered then
    Outcome.defended "TGT captured but unusable (address binding from another host)"
  else Outcome.defended "no credential pages observed"
