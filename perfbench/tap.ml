(* The traced run's view of the wire: a {!Sim.Net.add_tap} callback that
   charges the wall time and minor words since the previous send to the
   role of the host now sending (KDC, AP server or client), and counts,
   sizes and samples the packets. The tap's own work is excluded: each
   interval starts when the previous callback returned. *)

type role = Kdc | Ap | Client

let role_index = function Kdc -> 0 | Ap -> 1 | Client -> 2

(* Payloads kept for the wire timings: a uniform sample of the run's
   packets (reservoir sampling from a fixed seed). A fixed stride would
   alias with the fixed packet sequence of a session and keep one kind
   of message only. *)
let capture_cap = 2048

type t = {
  engine : Sim.Engine.t;
  kind : Wire.Encoding.kind;
  role_of : Sim.Addr.t -> role;
  self_ns : float array;
  words : float array;
  sends : int array;
  mutable last_ns : int64;
  mutable last_words : float;
  mutable packets : int;
  mutable bytes : int;
  mutable to_kdc : int;
  mutable pending_max : int;
  captured : (bool * bytes) array;  (** (KDC traffic?, payload) *)
  mutable n_captured : int;
  rng : Util.Rng.t;
  as_clients : (string, unit) Hashtbl.t;
}

let create ~engine ~kind ~role_of =
  { engine; kind; role_of; self_ns = Array.make 3 0.0; words = Array.make 3 0.0;
    sends = Array.make 3 0; last_ns = Clock.now_ns (); last_words = Gc.minor_words ();
    packets = 0; bytes = 0; to_kdc = 0; pending_max = 0;
    captured = Array.make capture_cap (false, Bytes.empty); n_captured = 0;
    rng = Util.Rng.create 0x7A9L;
    as_clients = Hashtbl.create 64 }

(* The [t.packets]-th packet replaces a random kept one with
   probability [capture_cap / t.packets]. *)
let capture t ~kdc payload =
  if t.n_captured < capture_cap then begin
    t.captured.(t.n_captured) <- (kdc, Bytes.copy payload);
    t.n_captured <- t.n_captured + 1
  end
  else
    let j = Util.Rng.int t.rng t.packets in
    if j < capture_cap then t.captured.(j) <- (kdc, Bytes.copy payload)

let captured t = Array.to_list (Array.sub t.captured 0 t.n_captured)

(* The client principal of a KDC-bound AS request, parsed as the KDC
   parses it (AS first; the TGS shape fails the AS parse). *)
let as_client kind payload =
  match Wire.Encoding.decode_result kind payload with
  | Error _ -> None
  | Ok v -> (
      match Kerberos.Messages.as_req_of_value (snd (Kerberos.Messages.split_deadline v)) with
      | q -> Some (Kerberos.Principal.to_string q.Kerberos.Messages.q_client)
      | exception Wire.Codec.Decode_error _ -> None)

let on_packet t (pkt : Sim.Packet.t) =
  let now = Clock.now_ns () and w = Gc.minor_words () in
  let r = role_index (t.role_of pkt.Sim.Packet.src) in
  t.self_ns.(r) <- t.self_ns.(r) +. Int64.to_float (Int64.sub now t.last_ns);
  t.words.(r) <- t.words.(r) +. (w -. t.last_words);
  t.sends.(r) <- t.sends.(r) + 1;
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + Bytes.length pkt.Sim.Packet.payload;
  t.pending_max <- max t.pending_max (Sim.Engine.pending t.engine);
  let to_kdc = t.role_of pkt.Sim.Packet.dst = Kdc in
  capture t ~kdc:(to_kdc || r = role_index Kdc) pkt.Sim.Packet.payload;
  (if to_kdc then begin
     t.to_kdc <- t.to_kdc + 1;
     match as_client t.kind pkt.Sim.Packet.payload with
     | Some c -> Hashtbl.replace t.as_clients c ()
     | None -> ()
   end);
  t.last_ns <- Clock.now_ns ();
  t.last_words <- Gc.minor_words ()

let attach net t = Sim.Net.add_tap net (on_packet t)

(* Mean wall µs and minor words per send of one role. *)
let self_us t role =
  let i = role_index role in
  if t.sends.(i) = 0 then 0.0 else t.self_ns.(i) /. float_of_int t.sends.(i) /. 1e3

let words_per_send t role =
  let i = role_index role in
  if t.sends.(i) = 0 then 0.0 else t.words.(i) /. float_of_int t.sends.(i)

let total_self_s t = Array.fold_left ( +. ) 0.0 t.self_ns *. 1e-9
