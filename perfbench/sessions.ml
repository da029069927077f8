(* Closed-loop sessions in an {!Attacks.Testbed}: one client, and each
   session — login, service ticket, AP exchange, one [call_priv] — starts
   only when the previous one's sealed reply is in. *)

open Kerberos

type bed = {
  tb : Attacks.Testbed.t;
  handheld : (bytes -> bytes) option;
}

(* Under [Handheld_challenge] the victim logs in with an enrolled
   device, so the login does the device's [{R}Kc] work as well. *)
let make ~seed profile =
  let tb = Attacks.Testbed.make ~seed ~profile () in
  let handheld =
    match profile.Profile.login with
    | Profile.Handheld_challenge ->
        Some
          (Hardened.Handheld.respond
             (Hardened.Handheld.enroll ~password:tb.Attacks.Testbed.victim_password))
    | _ -> None
  in
  { tb; handheld }

(* One session; [Ok ()] only when every step and the priv reply succeed.
   Each step is a span when the run is traced. *)
let session b =
  let tb = b.tb in
  let c = tb.Attacks.Testbed.victim in
  let result = ref (Error "session did not finish") in
  let root = Spans.start "kerberos.session" in
  let sp_login = Spans.start ~parent:root "kerberos.login" in
  Client.login c ?handheld:b.handheld ~password:tb.Attacks.Testbed.victim_password
    (fun r ->
      Spans.finish sp_login;
      match r with
      | Error e -> result := Error ("login: " ^ e)
      | Ok _ ->
          let sp = Spans.start ~parent:root "kerberos.get_ticket" in
          Client.get_ticket c ~service:tb.Attacks.Testbed.file_principal (fun r ->
              Spans.finish sp;
              match r with
              | Error e -> result := Error ("ticket: " ^ e)
              | Ok creds ->
                  let sp = Spans.start ~parent:root "kerberos.ap_exchange" in
                  Client.ap_exchange c creds
                    ~dst:(Sim.Host.primary_ip tb.Attacks.Testbed.file_host)
                    ~dport:tb.Attacks.Testbed.file_port (fun r ->
                      Spans.finish sp;
                      match r with
                      | Error e -> result := Error ("ap: " ^ e)
                      | Ok chan ->
                          let sp = Spans.start ~parent:root "kerberos.call_priv" in
                          Client.call_priv c chan (Bytes.of_string "LIST") ~k:(fun r ->
                              Spans.finish sp;
                              match r with
                              | Error e -> result := Error ("priv: " ^ e)
                              | Ok _ -> result := Ok ()))));
  Attacks.Testbed.run tb;
  Spans.finish root;
  !result

type timings = {
  times : Clock.interval list;  (** each session's, in order *)
  failures : string list;
}

(* [n] sessions, in order. *)
let loop ~n b =
  let runs = List.init n (fun _ -> Clock.timed (fun () -> session b)) in
  { times = List.map snd runs;
    failures = List.filter_map (function Error e, _ -> Some e | Ok (), _ -> None) runs }

let concat ts =
  { times = List.concat_map (fun t -> t.times) ts;
    failures = List.concat_map (fun t -> t.failures) ts }

(* Each session's µs, host-paced, and as wall time. *)
let paced_us t = List.map (fun iv -> Clock.paced_s iv *. 1e6) t.times
let raw_us t = List.map (fun iv -> Clock.raw_s iv *. 1e6) t.times
