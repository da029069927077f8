(* End-to-end tests of the Kerberos core: AS, TGS, AP, KRB_PRIV/SAFE under
   each profile; replay caches; cross-realm paths. *)

open Kerberos

let realm = "ATHENA"

type bed = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  kdc : Kdc.t;
  kdc_host : Sim.Host.t;
  ws : Sim.Host.t;  (* user workstation *)
  server_host : Sim.Host.t;
  file_port : int;
  file_principal : Principal.t;
  file_key : bytes;
  apserver : Apserver.t;
  client : Client.t;
}

let echo_handler _session ~client:_ data = Some (Bytes.cat (Bytes.of_string "echo:") data)

let make_bed ?(profile = Profile.v4) ?(handler = echo_handler) ?config () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kerberos" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let ws = Sim.Host.create ~name:"ws1" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  let server_host =
    Sim.Host.create ~name:"fileserver" ~ips:[ Sim.Addr.of_quad 10 0 0 20 ] ()
  in
  List.iter (Sim.Net.attach net) [ kdc_host; ws; server_host ];
  let db = Kdb.create () in
  let rng = Util.Rng.create 99L in
  let tgs_key = Crypto.Des.random_key rng in
  Kdb.add_service db (Principal.tgs ~realm) ~key:tgs_key;
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"correct.horse";
  Kdb.add_user db (Principal.user ~realm "robin") ~password:"tr0ub4dor";
  let file_principal = Principal.service ~realm "fileserv" ~host:"fileserver" in
  let file_key = Crypto.Des.random_key rng in
  Kdb.add_service db file_principal ~key:file_key;
  let kdc = Kdc.create ~realm ~profile ~lifetime:(8.0 *. 3600.0) db in
  Kdc.install net kdc_host kdc ();
  let file_port = 600 in
  let apserver =
    Apserver.install ?config net server_host ~profile ~principal:file_principal
      ~key:file_key ~port:file_port ~handler ()
  in
  let client =
    Client.create net ws ~profile
      ~kdcs:[ (realm, Sim.Host.primary_ip kdc_host) ]
      (Principal.user ~realm "pat")
  in
  { eng; net; kdc; kdc_host; ws; server_host; file_port; file_principal; file_key;
    apserver; client }

let run bed = Sim.Engine.run bed.eng

let expect_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* Full happy path: login, service ticket, AP exchange, priv roundtrip. *)
let happy_path profile () =
  let bed = make_bed ~profile () in
  let result = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      let _creds = expect_ok "login" r in
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
            ~dport:bed.file_port (fun r ->
              let chan = expect_ok "ap_exchange" r in
              Client.call_priv bed.client chan (Bytes.of_string "read /etc/motd")
                ~k:(fun r -> result := Some r))));
  run bed;
  match !result with
  | Some (Ok data) ->
      Alcotest.(check string) "priv echo" "echo:read /etc/motd" (Bytes.to_string data)
  | Some (Error e) -> Alcotest.failf "priv failed: %s" e
  | None -> Alcotest.fail "no result (simulation stalled)"

let wrong_password profile () =
  let bed = make_bed ~profile () in
  let result = ref None in
  Client.login bed.client ~password:"wrong" (fun r -> result := Some r);
  run bed;
  match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "login with wrong password succeeded"
  | None -> Alcotest.fail "no result"

let multiple_priv_messages profile () =
  let bed = make_bed ~profile () in
  let replies = ref [] in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
            ~dport:bed.file_port (fun r ->
              let chan = expect_ok "ap" r in
              let rec go i =
                if i <= 3 then
                  Client.call_priv bed.client chan
                    (Bytes.of_string (Printf.sprintf "req%d" i)) ~k:(fun r ->
                      replies := Bytes.to_string (expect_ok "priv" r) :: !replies;
                      go (i + 1))
              in
              go 1)));
  run bed;
  Alcotest.(check (list string)) "all replies"
    [ "echo:req1"; "echo:req2"; "echo:req3" ]
    (List.rev !replies)

let expired_ticket profile () =
  let bed = make_bed ~profile () in
  let outcome = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          (* Sit on the ticket for 9 hours, then try to use it. *)
          Sim.Engine.schedule_after bed.eng (9.0 *. 3600.0) (fun () ->
              Client.ap_exchange bed.client creds
                ~dst:(Sim.Host.primary_ip bed.server_host) ~dport:bed.file_port
                (fun r -> outcome := Some r))));
  run bed;
  match !outcome with
  | Some (Error e) ->
      Alcotest.(check bool) ("mentions expiry: " ^ e) true
        (Astring.String.is_infix ~affix:"expired" e
         || Astring.String.is_infix ~affix:"integrity" e)
  | Some (Ok _) -> Alcotest.fail "expired ticket accepted"
  | None -> Alcotest.fail "no outcome"

let tickets_cached profile () =
  let bed = make_bed ~profile () in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          ignore (expect_ok "get_ticket" r)));
  run bed;
  Alcotest.(check bool) "tgt cached" true (Sim.Host.cache_get bed.ws "tgt" <> None);
  let svc = "svc:" ^ Principal.to_string bed.file_principal in
  Alcotest.(check bool) "service ticket cached" true (Sim.Host.cache_get bed.ws svc <> None);
  Client.logout bed.client;
  Alcotest.(check bool) "wiped at logout" true (Sim.Host.cache_get bed.ws "tgt" = None)

let profile_cases name profile =
  [ Alcotest.test_case (name ^ ": happy path") `Quick (happy_path profile);
    Alcotest.test_case (name ^ ": wrong password") `Quick (wrong_password profile);
    Alcotest.test_case (name ^ ": several priv messages") `Quick
      (multiple_priv_messages profile);
    Alcotest.test_case (name ^ ": expired ticket") `Quick (expired_ticket profile);
    Alcotest.test_case (name ^ ": ticket caching") `Quick (tickets_cached profile) ]

(* ------------------------------------------------------------------ *)
(* Closing a channel                                                   *)
(* ------------------------------------------------------------------ *)

(* A "BIG" request is answered with more than the path MTU set below, so
   the datagram channel upgrades to the stream for it. *)
let big_reply session ~client data =
  if Bytes.to_string data = "BIG" then Some (Bytes.make 1200 'b')
  else echo_handler session ~client data

(* The client ports opened since [lo] that still listen. *)
let open_ports bed ~lo =
  let hi = Sim.Net.ephemeral_port bed.net in
  List.length
    (List.filter
       (fun port -> Sim.Net.listening bed.net (Sim.Host.primary_ip bed.ws) ~port)
       (List.init (hi - lo - 1) (fun i -> lo + 1 + i)))

(* Log in, open a channel, make one call with [request] and hand the
   channel over once its reply is in. *)
let channel_after bed ~request =
  let out = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds
            ~dst:(Sim.Host.primary_ip bed.server_host) ~dport:bed.file_port
            (fun r ->
              let chan = expect_ok "ap" r in
              Client.call_priv bed.client chan (Bytes.of_string request)
                ~k:(fun r -> out := Some (chan, expect_ok "priv" r)))));
  run bed;
  match !out with
  | Some v -> v
  | None -> Alcotest.fail "no reply (simulation stalled)"

let closed_channel_refuses () =
  let bed = make_bed () in
  let lo = Sim.Net.ephemeral_port bed.net in
  let chan, reply = channel_after bed ~request:"hello" in
  Alcotest.(check string) "open channel works" "echo:hello" (Bytes.to_string reply);
  Alcotest.(check int) "its port listens" 1 (open_ports bed ~lo);
  let sent = ref 0 in
  Sim.Net.add_tap bed.net (fun _ -> incr sent);
  Client.close chan;
  Client.close chan;
  let answers = ref [] in
  let note r = answers := r :: !answers in
  Client.call_priv bed.client chan (Bytes.of_string "again") ~k:note;
  Client.call_safe bed.client chan (Bytes.of_string "again") ~k:note;
  Client.send_priv_oneway bed.client chan (Bytes.of_string "again");
  Alcotest.(check (list (result string string))) "refused at once"
    [ Error "channel closed"; Error "channel closed" ]
    (List.map (Result.map Bytes.to_string) !answers);
  run bed;
  Alcotest.(check int) "no packet sent" 0 !sent;
  Alcotest.(check int) "port released" 0 (open_ports bed ~lo)

let closed_channel_ends_stream () =
  let bed = make_bed ~handler:big_reply () in
  Sim.Net.set_mtu bed.net (Some 600);
  let lo = Sim.Net.ephemeral_port bed.net in
  let chan, reply = channel_after bed ~request:"BIG" in
  Alcotest.(check int) "upgraded reply whole" 1200 (Bytes.length reply);
  Alcotest.(check int) "the stream's port listens" 1 (open_ports bed ~lo);
  Client.close chan;
  run bed;
  Alcotest.(check int) "stream closed" 0 (open_ports bed ~lo)

(* The call times out while its channel is still being upgraded; the
   caller closes it, and the stream the upgrade then opens is torn down
   instead of being attached to the closed channel. *)
let close_during_upgrade () =
  let bed = make_bed ~handler:big_reply () in
  Sim.Net.set_mtu bed.net (Some 600);
  let lo = Sim.Net.ephemeral_port bed.net in
  let chan, _ = channel_after bed ~request:"hello" in
  let outcome = ref None in
  Client.call_priv bed.client chan ~deadline:0.015 (Bytes.of_string "BIG")
    ~k:(fun r ->
      outcome := Some (Result.map Bytes.to_string r);
      Client.close chan);
  run bed;
  Alcotest.(check (option (result string string))) "timed out"
    (Some (Error "call timed out")) !outcome;
  Alcotest.(check int) "no stream left open" 0 (open_ports bed ~lo)

let suite_close =
  [ Alcotest.test_case "closed channel refuses calls" `Quick closed_channel_refuses;
    Alcotest.test_case "closing an upgraded channel ends its stream" `Quick
      closed_channel_ends_stream;
    Alcotest.test_case "close during an upgrade" `Quick close_during_upgrade ]

(* ------------------------------------------------------------------ *)
(* Replay cache behaviour at the AP server                             *)
(* ------------------------------------------------------------------ *)

let replayed_ap profile ~expect_accepted () =
  let bed = make_bed ~profile () in
  let adv = Sim.Adversary.attach bed.net in
  Sim.Adversary.start_tap adv;
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
            ~dport:bed.file_port (fun r -> ignore (expect_ok "ap" r))));
  run bed;
  let before = Apserver.sessions_established bed.apserver in
  Alcotest.(check int) "one honest session" 1 before;
  (* Replay the captured AP_REQ verbatim from a different port. *)
  let ap_reqs =
    Sim.Adversary.capture_matching adv (fun p ->
        p.Sim.Packet.dport = bed.file_port
        &&
        match Frames.unwrap p.Sim.Packet.payload with
        | Some (k, _) -> k = Frames.ap_req
        | None -> None <> None)
  in
  (match ap_reqs with
  | pkt :: _ ->
      Sim.Net.inject bed.net { pkt with Sim.Packet.sport = 40999 }
  | [] -> Alcotest.fail "no AP_REQ captured");
  run bed;
  let after = Apserver.sessions_established bed.apserver in
  if expect_accepted then Alcotest.(check int) "replay accepted (v4 behaviour)" 2 after
  else Alcotest.(check int) "replay rejected" 1 after

let v4_with_cache =
  { Profile.v4 with
    Profile.name = "v4+cache";
    ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }

let suite_replay =
  [ Alcotest.test_case "v4 (no cache): replayed AP_REQ accepted" `Quick
      (replayed_ap Profile.v4 ~expect_accepted:true);
    Alcotest.test_case "v4 + replay cache: replayed AP_REQ rejected" `Quick
      (replayed_ap v4_with_cache ~expect_accepted:false);
    Alcotest.test_case "hardened (challenge/response): replayed AP_REQ useless" `Quick
      (fun () ->
        (* With challenge/response, replaying the AP_REQ gets the attacker a
           fresh challenge it cannot answer; no session is established. *)
        replayed_ap Profile.hardened ~expect_accepted:false ()) ]

(* ------------------------------------------------------------------ *)
(* Cross-realm                                                         *)
(* ------------------------------------------------------------------ *)

let cross_realm_path () =
  (* Two realms, ATHENA and ENG, sharing a cross-realm key. A user of
     ATHENA reaches a service in ENG through both TGSs. *)
  let profile = Profile.v5_draft3 in
  let eng_ = Sim.Engine.create () in
  let net = Sim.Net.create eng_ in
  let kdc_a_host = Sim.Host.create ~name:"kdcA" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let kdc_b_host = Sim.Host.create ~name:"kdcB" ~ips:[ Sim.Addr.of_quad 10 0 1 1 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  let srv = Sim.Host.create ~name:"srvB" ~ips:[ Sim.Addr.of_quad 10 0 1 20 ] () in
  List.iter (Sim.Net.attach net) [ kdc_a_host; kdc_b_host; ws; srv ];
  let rng = Util.Rng.create 7L in
  let db_a = Kdb.create () and db_b = Kdb.create () in
  Kdb.add_service db_a (Principal.tgs ~realm:"ATHENA") ~key:(Crypto.Des.random_key rng);
  Kdb.add_service db_b (Principal.tgs ~realm:"ENG") ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db_a (Principal.user ~realm:"ATHENA" "pat") ~password:"pw";
  (* Shared cross-realm key: ATHENA's TGS signs tickets for ENG's TGS. *)
  let xkey = Crypto.Des.random_key rng in
  Kdb.add_cross_realm db_a (Principal.cross_realm_tgs ~local:"ATHENA" ~remote:"ENG") ~key:xkey;
  Kdb.add_cross_realm db_b (Principal.cross_realm_tgs ~local:"ATHENA" ~remote:"ENG") ~key:xkey;
  let svc = Principal.service ~realm:"ENG" "db" ~host:"srvB" in
  let svc_key = Crypto.Des.random_key rng in
  Kdb.add_service db_b svc ~key:svc_key;
  let kdc_a = Kdc.create ~realm:"ATHENA" ~profile ~lifetime:3600.0 db_a in
  let kdc_b = Kdc.create ~realm:"ENG" ~profile ~lifetime:3600.0 db_b in
  Kdc.add_realm_route kdc_a ~remote:"ENG" ~next_hop:"ENG";
  Kdc.install net kdc_a_host kdc_a ();
  Kdc.install net kdc_b_host kdc_b ();
  let _ap =
    Apserver.install net srv ~profile
      ~config:{ Apserver.default_config with trusted_transit = [ "ATHENA" ] }
      ~principal:svc ~key:svc_key ~port:700 ~handler:echo_handler ()
  in
  let client =
    Client.create net ws ~profile
      ~kdcs:
        [ ("ATHENA", Sim.Host.primary_ip kdc_a_host);
          ("ENG", Sim.Host.primary_ip kdc_b_host) ]
      (Principal.user ~realm:"ATHENA" "pat")
  in
  let result = ref None in
  Client.login client ~password:"pw" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket client ~service:svc (fun r ->
          let creds = expect_ok "cross-realm ticket" r in
          Client.ap_exchange client creds ~dst:(Sim.Host.primary_ip srv) ~dport:700
            (fun r ->
              let chan = expect_ok "ap" r in
              Client.call_priv client chan (Bytes.of_string "query") ~k:(fun r ->
                  result := Some r))));
  Sim.Engine.run eng_;
  (match !result with
  | Some (Ok data) -> Alcotest.(check string) "reply" "echo:query" (Bytes.to_string data)
  | Some (Error e) -> Alcotest.failf "cross-realm failed: %s" e
  | None -> Alcotest.fail "stalled");
  (* An identical server that does NOT trust ATHENA must refuse. *)
  let srv2 = Sim.Host.create ~name:"srvB2" ~ips:[ Sim.Addr.of_quad 10 0 1 21 ] () in
  Sim.Net.attach net srv2;
  let svc2 = Principal.service ~realm:"ENG" "db2" ~host:"srvB2" in
  let svc2_key = Crypto.Des.random_key rng in
  Kdb.add_service db_b svc2 ~key:svc2_key;
  let ap2 =
    Apserver.install net srv2 ~profile
      ~config:{ Apserver.default_config with trusted_transit = [] }
      ~principal:svc2 ~key:svc2_key ~port:700 ~handler:echo_handler ()
  in
  let refused = ref None in
  Client.get_ticket client ~service:svc2 (fun r ->
      let creds = expect_ok "ticket for svc2" r in
      Client.ap_exchange client creds ~dst:(Sim.Host.primary_ip srv2) ~dport:700
        (fun r -> refused := Some r));
  Sim.Engine.run eng_;
  (match !refused with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "untrusted transit accepted"
  | None -> Alcotest.fail "stalled");
  Alcotest.(check int) "no session on distrusting server" 0
    (Apserver.sessions_established ap2)

let suite_cross_realm = [ Alcotest.test_case "two-realm path and transit policy" `Quick cross_realm_path ]

(* ------------------------------------------------------------------ *)
(* Encoding/seal units                                                 *)
(* ------------------------------------------------------------------ *)

let seal_roundtrip () =
  let rng = Util.Rng.create 3L in
  let key = Crypto.Des.random_key rng in
  List.iter
    (fun scheme ->
      let data = Bytes.of_string "some protocol plaintext" in
      let ct = Seal.seal scheme rng ~key data in
      match Seal.open_ scheme ~key ct with
      | Ok back -> Alcotest.(check string) "roundtrip" "some protocol plaintext" (Bytes.to_string back)
      | Error e -> Alcotest.fail e)
    [ Seal.Pcbc_raw; Seal.Cbc_confounder Crypto.Checksum.Crc32;
      Seal.Cbc_confounder Crypto.Checksum.Md4 ]

let seal_tamper_detected () =
  let rng = Util.Rng.create 4L in
  let key = Crypto.Des.random_key rng in
  let data = Bytes.of_string "tamper with me please!" in
  let ct = Seal.seal (Seal.Cbc_confounder Crypto.Checksum.Md4) rng ~key data in
  Bytes.set ct 9 (Char.chr (Char.code (Bytes.get ct 9) lxor 1));
  (match Seal.open_ (Seal.Cbc_confounder Crypto.Checksum.Md4) ~key ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampering not detected")

let ticket_roundtrip () =
  let t =
    { Messages.server = Principal.service ~realm "rlogin" ~host:"myhost";
      client = Principal.user ~realm "pat"; addr = Some (Sim.Addr.of_quad 10 0 0 10);
      issued_at = 1000.0; lifetime = 3600.0; session_key = Bytes.make 8 'k';
      forwarded = false; dup_skey = false; transited = [ "A"; "B" ] }
  in
  List.iter
    (fun kind ->
      let b = Wire.Encoding.encode kind (Messages.ticket_to_value t) in
      let t' = Messages.ticket_of_value (Wire.Encoding.decode kind b) in
      Alcotest.(check bool) "roundtrip" true (t = t'))
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ]

let suite_units =
  [ Alcotest.test_case "seal roundtrip" `Quick seal_roundtrip;
    Alcotest.test_case "seal tamper detection" `Quick seal_tamper_detected;
    Alcotest.test_case "ticket roundtrip" `Quick ticket_roundtrip ]

(* Ablation profiles: every optional mechanism exercised on the full happy
   path, not just in its targeted experiment. *)
let v5_md4des =
  { Profile.v5_draft3 with Profile.name = "v5+md4des"; checksum = Crypto.Checksum.Md4_des }

let v5_seq =
  { Profile.v5_draft3 with Profile.name = "v5+seq"; priv_replay = Profile.Priv_sequence }

let v4_handheld =
  { Profile.v4 with Profile.name = "v4+handheld"; login = Profile.Handheld_challenge }

let v4_dh61 =
  { Profile.v4 with Profile.name = "v4+dh61"; login = Profile.Dh_protected; dh_group_bits = 61 }

let challenge_state_bounded () =
  (* Half-open challenge flood: an attacker with a valid ticket opens
     challenges it never answers. The server's state stays bounded. *)
  let profile = Profile.hardened in
  let bed =
    make_bed ~profile ~config:{ Apserver.default_config with max_peers = 10 } ()
  in
  let creds = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          creds := Some (expect_ok "ticket" r)));
  run bed;
  let creds = Option.get !creds in
  (* Fire 50 AP_REQs from distinct ports; answer none of the challenges. *)
  let ap_bytes =
    Messages.encode_msg profile ~tag:Messages.tag_ap_req
      (Messages.ap_req_to_value
         { Messages.r_ticket = creds.Client.ticket; r_authenticator = Bytes.empty;
           r_mutual = false })
  in
  for i = 0 to 49 do
    Sim.Net.send bed.net ~sport:(50000 + i) ~dst:(Sim.Host.primary_ip bed.server_host)
      ~dport:bed.file_port bed.ws (Frames.wrap Frames.ap_req ap_bytes)
  done;
  run bed;
  Alcotest.(check bool) "state bounded" true
    (Apserver.peer_state_size bed.apserver <= 10);
  (* And the server still works for an honest client afterwards. *)
  let ok = ref false in
  Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
    ~dport:bed.file_port (fun r -> ok := Result.is_ok r);
  run bed;
  Alcotest.(check bool) "honest client still served" true !ok

(* An active attacker on the hardened login substitutes an exponential
   that pins the DH secret (1), or one outside the group (p). Each side
   must refuse the other's bad value through its own error path. *)
let bad_exponentials =
  let p = (Crypto.Dh.group ~bits:Profile.hardened.Profile.dh_group_bits).Crypto.Dh.p in
  let size = (Crypto.Bignum.num_bits p + 7) / 8 in
  [ ("1", Crypto.Bignum.to_bytes_be ~size Crypto.Bignum.one);
    ("p", Crypto.Bignum.to_bytes_be ~size p) ]

(* Log in through an interceptor that rewrites every message to or from
   the KDC port that [rewrite] accepts; returns the login result. *)
let login_rewritten ~to_kdc rewrite =
  let bed = make_bed ~profile:Profile.hardened () in
  let enc = Profile.hardened.Profile.encoding in
  Sim.Net.set_interceptor bed.net (fun pkt ->
      let port = if to_kdc then pkt.Sim.Packet.dport else pkt.Sim.Packet.sport in
      if port <> Kdc.default_port then Sim.Net.Deliver
      else
        match rewrite (Wire.Encoding.decode enc pkt.Sim.Packet.payload) with
        | v -> Sim.Net.Replace [ { pkt with Sim.Packet.payload = Wire.Encoding.encode enc v } ]
        | exception Wire.Codec.Decode_error _ -> Sim.Net.Deliver);
  let result = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r -> result := Some r);
  run bed;
  match !result with
  | Some (Ok _) -> Alcotest.fail "login succeeded with a bad exponential"
  | Some (Error e) -> e
  | None -> Alcotest.fail "no answer"

let kdc_rejects_bad_exponential () =
  List.iter
    (fun (name, y) ->
      let e =
        login_rewritten ~to_kdc:true (fun v ->
            let q = Messages.as_req_of_value v in
            Messages.as_req_to_value
              { q with
                Messages.q_padata =
                  List.map
                    (function Messages.Pa_dh _ -> Messages.Pa_dh y | pa -> pa)
                    q.Messages.q_padata })
      in
      Alcotest.(check string) ("Pa_dh " ^ name) "KDC error: peer exponential out of range" e)
    bad_exponentials

let client_rejects_bad_exponential () =
  List.iter
    (fun (name, y) ->
      let e =
        login_rewritten ~to_kdc:false (fun v ->
            Messages.as_rep_to_value
              { (Messages.as_rep_of_value v) with Messages.p_dh_public = Some y })
      in
      Alcotest.(check string) ("KDC exponential " ^ name) "peer exponential out of range" e)
    bad_exponentials

let kdc_timeout () =
  (* A client with no KDC on the network reports a timeout, not a hang. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  Sim.Net.attach net ws;
  let c =
    Client.create net ws ~profile:Profile.v4
      ~kdcs:[ (realm, Sim.Addr.of_quad 10 0 0 250) ]
      (Principal.user ~realm "pat")
  in
  let r = ref None in
  Client.login c ~password:"pw" (fun x -> r := Some x);
  Sim.Engine.run eng;
  match !r with
  | Some (Error e) -> Alcotest.(check string) "timeout" "KDC timeout" e
  | Some (Ok _) -> Alcotest.fail "login succeeded with no KDC"
  | None -> Alcotest.fail "no answer"

let () =
  Alcotest.run "kerberos"
    [ ("v4", profile_cases "v4" Profile.v4);
      ("v5-draft3", profile_cases "v5" Profile.v5_draft3);
      ("hardened", profile_cases "hardened" Profile.hardened);
      ("v5+md4des", profile_cases "v5+md4des" v5_md4des);
      ("v5+seq", profile_cases "v5+seq" v5_seq);
      ("v4+handheld", profile_cases "v4+handheld" v4_handheld);
      ("v4+dh61", profile_cases "v4+dh61" v4_dh61);
      ("timeout", [ Alcotest.test_case "kdc unreachable" `Quick kdc_timeout ]);
      ( "dh-peer",
        [ Alcotest.test_case "kdc rejects a bad client exponential" `Quick
            kdc_rejects_bad_exponential;
          Alcotest.test_case "client rejects a bad kdc exponential" `Quick
            client_rejects_bad_exponential ] );
      ( "server-state",
        [ Alcotest.test_case "challenge flood bounded" `Quick challenge_state_bounded ] );
      ("close", suite_close);
      ("replay", suite_replay);
      ("cross-realm", suite_cross_realm);
      ("units", suite_units) ]
