open Kerberos

let realm = "ATHENA"

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
  attacker : Client.t;
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
  rng : Util.Rng.t;
}

let expect what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "testbed: %s failed: %s" what e)

let make ?(seed = 0xBEDL) ?(enc_tkt_cname_check = false) ?server_config ~profile () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let quad = Sim.Addr.of_quad in
  let kdc_host = Sim.Host.create ~name:"kerberos" ~ips:[ quad 10 0 0 1 ] () in
  let time_host = Sim.Host.create ~name:"timehost" ~ips:[ quad 10 0 0 2 ] () in
  let victim_ws = Sim.Host.create ~name:"ws-pat" ~ips:[ quad 10 0 0 10 ] () in
  let attacker_host = Sim.Host.create ~name:"darkstar" ~ips:[ quad 10 0 0 66 ] () in
  let mail_host = Sim.Host.create ~name:"po10" ~ips:[ quad 10 0 0 20 ] () in
  let file_host = Sim.Host.create ~name:"fs1" ~ips:[ quad 10 0 0 21 ] () in
  let backup_host = Sim.Host.create ~name:"vault" ~ips:[ quad 10 0 0 22 ] () in
  List.iter (Sim.Net.attach net)
    [ kdc_host; time_host; victim_ws; attacker_host; mail_host; file_host; backup_host ];
  let db = Kdb.create () in
  let key_rng = Util.Rng.create (Int64.add seed 1L) in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key key_rng);
  let victim_password = "quietly9.flows" and attacker_password = "robin.owns.this" in
  Kdb.add_user db (Principal.user ~realm "pat") ~password:victim_password;
  Kdb.add_user db (Principal.user ~realm "robin") ~password:attacker_password;
  let mail_principal = Principal.service ~realm "pop" ~host:"po10" in
  let file_principal = Principal.service ~realm "fileserv" ~host:"fs1" in
  let backup_principal = Principal.service ~realm "backup" ~host:"vault" in
  let mail_key = Crypto.Des.random_key key_rng in
  let file_key = Crypto.Des.random_key key_rng in
  let backup_key = Crypto.Des.random_key key_rng in
  Kdb.add_service db mail_principal ~key:mail_key;
  Kdb.add_service db file_principal ~key:file_key;
  Kdb.add_service db backup_principal ~key:backup_key;
  let kdc = Kdc.create ~enc_tkt_cname_check ~realm ~profile ~lifetime:(8.0 *. 3600.0) db in
  Kdc.install net kdc_host kdc ();
  Timesvc.install_server net time_host ();
  let mail_port = 110 and file_port = 600 and backup_port = 601 in
  let mail =
    Services.Mailserver.install ?config:server_config net mail_host ~profile
      ~principal:mail_principal ~key:mail_key ~port:mail_port
  in
  let file =
    Services.Fileserver.install ?config:server_config net file_host ~profile
      ~principal:file_principal ~key:file_key ~port:file_port
  in
  let backup =
    Services.Backupserver.install ?config:server_config net backup_host ~profile
      ~principal:backup_principal ~key:backup_key ~port:backup_port
  in
  let kdcs = [ (realm, Sim.Host.primary_ip kdc_host) ] in
  let victim =
    Client.create ~seed:(Int64.add seed 2L) net victim_ws ~profile ~kdcs
      (Principal.user ~realm "pat")
  in
  let attacker =
    Client.create ~seed:(Int64.add seed 3L) net attacker_host ~profile ~kdcs
      (Principal.user ~realm "robin")
  in
  let adv = Sim.Adversary.attach net in
  { eng; net; profile; kdc; kdc_host; db; victim_ws; victim; victim_password;
    attacker_host; attacker; attacker_password; mail_host; mail; mail_principal;
    mail_port; file_host; file; file_principal; file_key; file_port; backup_host;
    backup; backup_principal; backup_port; time_host; adv;
    rng = Util.Rng.create (Int64.add seed 4L) }

let run t = Sim.Engine.run t.eng
let run_for t dt = Sim.Engine.run_until t.eng (Sim.Engine.now t.eng +. dt)

let kdc_addr t = Sim.Host.primary_ip t.kdc_host
let victim_addr t = Sim.Host.primary_ip t.victim_ws
let attacker_addr t = Sim.Host.primary_ip t.attacker_host

let login_victim t =
  let done_ = ref false in
  Client.login t.victim ~password:t.victim_password (fun r ->
      ignore (expect "victim login" r);
      done_ := true);
  run t;
  if not !done_ then failwith "testbed: victim login stalled"

let victim_mail_session t () =
  Client.login t.victim ~password:t.victim_password (fun r ->
      ignore (expect "login" r);
      Client.get_ticket t.victim ~service:t.mail_principal (fun r ->
          let creds = expect "mail ticket" r in
          Client.ap_exchange t.victim creds ~dst:(Sim.Host.primary_ip t.mail_host)
            ~dport:t.mail_port (fun r ->
              let chan = expect "mail ap" r in
              Client.call_priv t.victim chan (Bytes.of_string "COUNT") ~k:(fun r ->
                  let n = int_of_string (Bytes.to_string (expect "COUNT" r)) in
                  if n > 0 then
                    Client.call_priv t.victim chan (Bytes.of_string "RETR 0")
                      ~k:(fun r -> ignore (expect "RETR" r))))))
