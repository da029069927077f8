open Kerberos

type result = {
  planted_bytes : int;
  prefix_cut : bool;
  executed_as_victim : bool;
}

(* Build the complete KRB_PRIV plaintext (V5-draft layout) for [data] as it
   would appear coming from the victim: data, the format's own checksum
   (computed by the attacker — an unkeyed CRC-32 or MD4 protects nothing
   against the party who chose the data), stamp, direction 0
   (client->server), the victim's address, then padding. This is what the
   attacker wants the server's encryption oracle to process verbatim. *)
let embedded_plaintext ~(profile : Profile.t) ~data ~stamp ~victim_addr =
  let data = Bytes.of_string data in
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.raw w data;
  Wire.Codec.Writer.raw w
    (Crypto.Checksum.compute profile.Profile.checksum ~key:Bytes.empty data);
  Wire.Codec.Writer.i64 w (Int64.bits_of_float stamp);
  Wire.Codec.Writer.u8 w 0;
  Wire.Codec.Writer.u32 w victim_addr;
  Crypto.Mode.pad (Wire.Codec.Writer.contents w)

let run ?(seed = 0xE6L) ~profile () =
  let bed = Testbed.make ~seed ~profile () in
  Sim.Adversary.start_tap bed.adv;
  (* The attacker plans to fire the forgery about a minute from now and
     stamps the embedded message accordingly. *)
  let fire_at = Sim.Engine.now bed.eng +. 60.0 in
  let embedded =
    embedded_plaintext ~profile ~data:"DELE 0" ~stamp:fire_at
      ~victim_addr:(Testbed.victim_addr bed)
  in
  (* Plant: ordinary mail delivery, no authentication needed to SEND. *)
  Services.Mailserver.deliver bed.mail ~user:"pat" embedded;
  (* The victim checks mail (COUNT, then RETR 0 — the planted message). *)
  Testbed.victim_mail_session bed ();
  Testbed.run bed;
  (* Find the largest priv frame the server sent to the victim: the RETR
     response carrying the encryption of the planted bytes. *)
  let responses =
    Sim.Adversary.capture_matching bed.adv (fun p ->
        p.Sim.Packet.src = Sim.Host.primary_ip bed.mail_host
        && p.Sim.Packet.sport = bed.mail_port
        &&
        match Frames.unwrap p.Sim.Packet.payload with
        | Some (k, body) -> k = Frames.priv && Bytes.length body > Bytes.length embedded
        | None -> false)
  in
  let best =
    List.fold_left
      (fun acc p ->
        match acc with
        | None -> Some p
        | Some q ->
            if Bytes.length p.Sim.Packet.payload > Bytes.length q.Sim.Packet.payload
            then Some p
            else acc)
      None responses
  in
  match best with
  | None -> { planted_bytes = Bytes.length embedded; prefix_cut = false; executed_as_victim = false }
  | Some pkt ->
      (* Cut the ciphertext prefix covering exactly the embedded blocks. *)
      let body =
        match Frames.unwrap pkt.Sim.Packet.payload with
        | Some (_, b) -> b
        | None -> assert false
      in
      let prefix = Bytes.sub body 0 (Bytes.length embedded) in
      (* The victim's channel port is where the server sent the response. *)
      let victim_port = pkt.Sim.Packet.dport in
      let before = Services.Mailserver.deleted_count bed.mail ~user:"pat" in
      Sim.Engine.schedule bed.eng ~at:fire_at (fun () ->
          Sim.Adversary.spoof bed.adv ~src:(Testbed.victim_addr bed) ~sport:victim_port
            ~dst:(Sim.Host.primary_ip bed.mail_host) ~dport:bed.mail_port
            (Frames.wrap Frames.priv prefix));
      Testbed.run bed;
      let after = Services.Mailserver.deleted_count bed.mail ~user:"pat" in
      { planted_bytes = Bytes.length embedded; prefix_cut = true;
        executed_as_victim = after > before }

let outcome r =
  if r.executed_as_victim then
    Outcome.broken
      "ciphertext prefix of %d planted bytes accepted as a fresh KRB_PRIV from the victim"
      r.planted_bytes
  else if r.prefix_cut then
    Outcome.defended "prefix cut but rejected (format or IV chaining resists)"
  else Outcome.defended "no usable encryption-oracle output observed"
