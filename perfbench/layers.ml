(* Single layers timed from outside: public calls into sim, wire and
   crypto, at the sizes the workload's traced run saw. *)

(* Median host-paced ns per call of [f] over seven batches of [n] calls. *)
let ns_per_call ~n f =
  Stats.median
    (List.init 7 (fun _ ->
         let (), iv = Clock.timed (fun () -> for _ = 1 to n do f () done) in
         Clock.paced_s iv *. 1e9 /. float_of_int n))

(* [Engine.schedule]/[run] of no-op events: [depth] self-rescheduling
   events keep the heap at the workload's depth until [events] have run. *)
let engine_ns_per_event ~events ~depth =
  let depth = max 1 depth and events = max 1000 events in
  let once () =
    let e = Sim.Engine.create () in
    let rng = Util.Rng.create 0x5EEDL in
    let left = ref (events - depth) in
    let rec tick () =
      if !left > 0 then begin
        decr left;
        Sim.Engine.schedule_after e (0.001 +. Util.Rng.float rng 1.0) tick
      end
    in
    for _ = 1 to depth do
      Sim.Engine.schedule e ~at:(Util.Rng.float rng 1.0) tick
    done;
    let (), iv = Clock.timed (fun () -> Sim.Engine.run e) in
    Clock.paced_s iv *. 1e9 /. float_of_int (Sim.Engine.executed e)
  in
  Stats.median (List.init 5 (fun _ -> once ()))

(* A captured payload's wire bytes: KDC traffic is encoded directly and
   must decode; application traffic sits behind a one-byte
   {!Kerberos.Frames} header, and a frame whose body is no wire value is
   sealed data, which is skipped. [Error ()] is a decode failure. *)
let wire_body kind (kdc, payload) =
  let decodes b = Result.is_ok (Wire.Encoding.decode_result kind b) in
  if kdc then if decodes payload then Ok (Some payload) else Error ()
  else
    match Kerberos.Frames.unwrap payload with
    | Some (_, inner) -> Ok (if decodes inner then Some inner else None)
    | None -> Error ()

(* ns per [Encoding.decode] and per [Encoding.encode] over the captured
   payloads' wire bytes, and how many captured payloads failed to decode. *)
let wire ~kind captured =
  let parsed = List.map (wire_body kind) captured in
  let failures = List.length (List.filter Result.is_error parsed) in
  let bodies = List.filter_map (function Ok b -> b | Error () -> None) parsed in
  match bodies with
  | [] -> (0.0, 0.0, failures)
  | _ ->
      let n = List.length bodies in
      let values = List.map (Wire.Encoding.decode kind) bodies in
      let reps = max 1 (20_000 / n) in
      let decode_ns =
        ns_per_call ~n:reps (fun () ->
            List.iter (fun b -> ignore (Wire.Encoding.decode kind b)) bodies)
        /. float_of_int n
      in
      let encode_ns =
        ns_per_call ~n:reps (fun () ->
            List.iter (fun v -> ignore (Wire.Encoding.encode kind v)) values)
        /. float_of_int n
      in
      (decode_ns, encode_ns, failures)

(* ns per DES block of in-place CBC over a buffer of [msg_bytes]. *)
let des_block_ns ~msg_bytes =
  let key = Crypto.Des.schedule (Bytes.of_string "\x13\x34\x57\x79\x9b\xbc\xdf\xf1") in
  let len = Crypto.Mode.padded_length (max 1 msg_bytes) in
  let buf = Bytes.make len 'k' in
  let calls = max 1 (400_000 / len) in
  ns_per_call ~n:calls (fun () ->
      Crypto.Mode.cbc_encrypt_into key ~iv:Crypto.Mode.zero_iv ~src:buf ~dst:buf)
  /. float_of_int (len / Crypto.Des.block_size)

(* µs per [Bignum.mod_pow] in the Diffie-Hellman group of [bits]. *)
let modexp_us ~bits =
  let g = Crypto.Dh.group ~bits in
  let rng = Util.Rng.create 0xD11L in
  let exps = Array.init 16 (fun _ -> Crypto.Bignum.random rng ~bits) in
  let i = ref 0 in
  ns_per_call ~n:64 (fun () ->
      incr i;
      ignore
        (Crypto.Bignum.mod_pow ~base:g.Crypto.Dh.g ~exp:exps.(!i land 15)
           ~modulus:g.Crypto.Dh.p))
  /. 1e3

(* µs per [Str2key.derive] over the workload's own passwords. *)
let str2key_us ~seed =
  let pw =
    Array.init 64 (fun i ->
        (Workloads.Passwords.user_at ~seed ~weak_fraction:0.4 i).Workloads.Passwords.password)
  in
  let i = ref 0 in
  ns_per_call ~n:256 (fun () ->
      incr i;
      ignore (Crypto.Str2key.derive pw.(!i land 63)))
  /. 1e3
