(** A Kerberos client that never sends a single honest packet: every request
    is injected with a forged source address, and every reply is read off
    the wiretap (the replies go to the impersonated host, which ignores
    them — but the attacker sees them in flight and holds the session key
    needed to open them).

    This is the constructive form of the paper's verdict on address-bound
    tickets: "given our assumption that the network is under full control
    of the attacker, no extra security is gained by relying on the network
    address." Used by the paging-leak experiment (E18) to cash a stolen,
    address-bound V4 TGT from the wrong machine. Timestamp-authenticator
    profiles only (the challenge round-trip would work the same way, but
    no experiment needs it). *)

type stolen_tgt = {
  s_client : Kerberos.Principal.t;
  s_ticket : bytes;
  s_session_key : bytes;
}

val get_service_ticket :
  Testbed.t ->
  spoof_addr:Sim.Addr.t ->
  tgt:stolen_tgt ->
  service:Kerberos.Principal.t ->
  k:((Kerberos.Client.credentials, string) result -> unit) ->
  unit

val call_priv_as :
  Testbed.t ->
  spoof_addr:Sim.Addr.t ->
  client:Kerberos.Principal.t ->
  creds:Kerberos.Client.credentials ->
  dst:Sim.Addr.t ->
  dport:int ->
  bytes ->
  k:((bytes, string) result -> unit) ->
  unit
(** Spoofed AP exchange followed by one sealed request; the sealed response
    is plucked off the tap and decrypted. Both calls read the bed's
    capture, so the caller must have started [bed.adv]'s tap. *)
