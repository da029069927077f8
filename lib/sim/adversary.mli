(** The Dolev-Yao attacker: a convenient façade over the network hooks.

    One adversary per network is enough for every experiment. Once its
    tap is started it records all traffic it sees ([captured]) so attack
    code can hunt for tickets, authenticators and login dialogs after the
    fact, exactly as the paper's intruder "would have everything in place
    before the ticket-capture was attempted". Recording is opt-in: an
    attack starts the tap before the traffic it hunts, and a network
    nobody attacks keeps no copy of its packets. *)

type t

val attach : Net.t -> t
val net : t -> Net.t

val start_tap : t -> unit
(** Begin recording every packet transmitted from now on (each one is
    kept until the adversary itself is dropped). *)

val captured : t -> Packet.t list
(** Everything seen since {!start_tap}, chronological.
    @raise Invalid_argument if {!start_tap} was never called — an attack
    that forgot its tap fails loudly instead of finding nothing. *)

val capture_matching : t -> (Packet.t -> bool) -> Packet.t list
(** The captured packets that satisfy the predicate, chronological.
    @raise Invalid_argument as {!captured}. *)

val intercept : t -> (Packet.t -> Net.decision) -> unit
(** Install an in-flight rewriter (drop / modify / replace). *)

val stop_intercepting : t -> unit

val spoof :
  t -> src:Addr.t -> sport:int -> dst:Addr.t -> dport:int -> bytes -> unit
(** Inject a forged packet with an arbitrary source. *)

val replay : t -> Packet.t -> unit
(** Re-inject a previously captured packet verbatim. *)

val replay_to : t -> Packet.t -> dst:Addr.t -> dport:int -> unit
(** Re-inject a captured packet, redirected to a different destination. *)
