(** The shared scenario every attack runs in: one realm, a KDC, a victim
    workstation (user [pat]), an attacker machine with a legitimate insider
    account ([robin] — the paper's adversary "may also be in league with
    some subset of servers, clients"), a mail server, a file server, a
    backup server, an rsh host, a time server, and a Dolev-Yao adversary
    attached to the wire. The adversary records nothing until an attack
    calls [Sim.Adversary.start_tap bed.adv], which it does right after
    {!make}, before any traffic. *)

open Kerberos

type t = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  profile : Profile.t;
  kdc : Kdc.t;
  kdc_host : Sim.Host.t;
  db : Kdb.t;
  victim_ws : Sim.Host.t;
  victim : Client.t;
  victim_password : string;
  attacker_host : Sim.Host.t;
  attacker : Client.t;  (** robin's legitimate client, used for insider moves *)
  attacker_password : string;
  mail_host : Sim.Host.t;
  mail : Services.Mailserver.t;
  mail_principal : Principal.t;
  mail_port : int;
  file_host : Sim.Host.t;
  file : Services.Fileserver.t;
  file_principal : Principal.t;
  file_key : bytes;
  file_port : int;
  backup_host : Sim.Host.t;
  backup : Services.Backupserver.t;
  backup_principal : Principal.t;
  backup_port : int;
  time_host : Sim.Host.t;
  adv : Sim.Adversary.t;
  rng : Util.Rng.t;  (** the attacker's own randomness *)
}

val make :
  ?seed:int64 ->
  ?enc_tkt_cname_check:bool ->
  ?server_config:Apserver.config ->
  profile:Profile.t ->
  unit ->
  t

val run : t -> unit
val run_for : t -> float -> unit
(** Advance the simulation by the given number of seconds. *)

val kdc_addr : t -> Sim.Addr.t
val victim_addr : t -> Sim.Addr.t
val attacker_addr : t -> Sim.Addr.t

val login_victim : t -> unit
(** Log pat in and fail loudly if that does not work. *)

val victim_mail_session : t -> unit -> unit
(** One complete mail-check session: ticket, AP exchange, COUNT, RETR 0 if
    present. The workload of the replay experiments. *)

val expect : string -> ('a, string) result -> 'a
(** Assert-ok helper for scripted honest traffic inside attacks. *)
