type t = {
  network : Net.t;
  mutable tapping : bool;
  mutable seen : Packet.t list; (* reverse order *)
}

let attach network = { network; tapping = false; seen = [] }
let net t = t.network

let start_tap t =
  t.tapping <- true;
  Net.add_tap t.network (fun pkt -> t.seen <- pkt :: t.seen)

let captured t =
  if not t.tapping then invalid_arg "Adversary.captured: start_tap was never called";
  List.rev t.seen

let capture_matching t pred = List.filter pred (captured t)

let intercept t fn = Net.set_interceptor t.network fn
let stop_intercepting t = Net.clear_interceptor t.network

let spoof t ~src ~sport ~dst ~dport payload =
  Net.inject t.network { Packet.src; sport; dst; dport; payload; uid = 0 }

let replay t pkt = Net.inject t.network pkt

let replay_to t pkt ~dst ~dport =
  Net.inject t.network { pkt with Packet.dst; dport }
