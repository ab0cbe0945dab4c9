(** Causal Fair Queuing algorithms and the load-sharing transformation.

    §3.1 of the paper characterizes a {e Causal} Fair Queuing (CFQ)
    algorithm, in its backlogged execution, by a state [s] and two
    functions applied in succession: a selector [f(s)] that picks a queue,
    and an update [g(s, p)] applied after the packet [p] at the head of
    the selected queue is transmitted. Crucially, [f] may depend only on
    the state — i.e. only on previously transmitted packets — never on the
    contents of the queues. Ordinary round robin is causal; DKS
    bit-by-bit-simulation fair queuing is not.

    §3.2 gives the transformation: run the {e same} [(s0, f, g)] at a
    sender with a single input queue, but use [f(s)] to {e push} the next
    packet to output channel [f(s)] instead of pulling from queue [f(s)].
    Theorem 3.1 shows the transformed algorithm inherits the fairness of
    the original.

    This module makes both directions executable over one first-class
    representation, which is what the duality property tests exercise:
    feeding the per-channel outputs of [load_share] back into [fair_queue]
    must reproduce the original input sequence (the E ↔ E' correspondence
    in the proof of Theorem 3.1). *)

type instance = {
  select : unit -> int;  (** [f(s)]: pick the queue/channel for the next packet. *)
  update : size:int -> unit;  (** [g(s, p)]: account for the transmitted packet. *)
  reset : unit -> unit;
      (** Return the instance to the initial state [s0]: the §5 reset
          barrier's effect on the algorithm state. For deficit-backed
          algorithms this is {!Deficit.reinit}; for {!seeded_random} it
          reseeds the RNG {e and} discards any draw cached by a [select]
          whose packet was never dispatched — a stale cached draw would
          leave the sender one draw ahead of the receiver's replay
          forever after. *)
}

type t = {
  name : string;
  n : int;  (** Number of queues/channels. *)
  fresh : unit -> instance;  (** A new instance at the initial state [s0]. *)
}

val of_deficit : name:string -> (unit -> Deficit.t) -> t
(** Wrap a deficit-engine constructor (SRR, RR, GRR configurations) as a
    CFQ algorithm. Each [fresh] call builds an engine from the initial
    state. *)

val seeded_random : name:string -> n:int -> seed:int -> t
(** The randomized fair queuing (RFQ) scheme of §3.4: pick a uniformly
    random queue for every packet. With a shared seed the selection
    sequence is a pure function of the number of packets already sent, so
    the algorithm is causal and a receiver that knows the seed can
    simulate it. Expected bytes per channel are identical, i.e. RFQ is
    fair in the randomized sense of §3.3. *)

val load_share : t -> (int * 'a) list -> (int * (int * 'a)) list
(** [load_share cfq packets] runs the transformed algorithm over an input
    sequence of [(size, payload)] pairs, as in Figure 3. Returns the
    dispatch sequence [(channel, (size, payload))] in transmission
    order. *)

val fair_queue : t -> (int * 'a) list array -> (int * (int * 'a)) list option
(** [fair_queue cfq queues] runs the original algorithm over backlogged
    input queues, as in Figure 2. Returns the service order
    [(queue, (size, payload))]. The backlog assumption means execution is
    only defined while the selected queue is non-empty: the run ends
    normally when every queue is empty, and returns [None] if the
    algorithm selects an exhausted queue while others still hold packets
    (the execution left the backlogged regime). *)

val outputs_by_channel : n:int -> (int * 'a) list -> 'a list array
(** Group a dispatch sequence per channel, preserving per-channel order —
    builds the initial queues of execution E' from the outputs of E. *)
