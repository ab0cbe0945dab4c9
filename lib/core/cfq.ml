type instance = {
  select : unit -> int;
  update : size:int -> unit;
  reset : unit -> unit;
}

type t = {
  name : string;
  n : int;
  fresh : unit -> instance;
}

let of_deficit ~name make =
  let probe = make () in
  {
    name;
    n = Deficit.n_channels probe;
    fresh =
      (fun () ->
        let d = make () in
        {
          select = (fun () -> Deficit.select d);
          update = (fun ~size -> Deficit.consume d ~size);
          reset = (fun () -> Deficit.reinit d);
        });
  }

let seeded_random ~name ~n ~seed =
  if n <= 0 then invalid_arg "Cfq.seeded_random: n must be positive";
  {
    name;
    n;
    fresh =
      (fun () ->
        let rng = ref (Stripe_netsim.Rng.create seed) in
        (* The channel for packet k is drawn when packet k is dispatched;
           selection must be stable across repeated [select] calls before
           the matching [update], so we draw lazily and cache. *)
        let pending = ref None in
        let select () =
          match !pending with
          | Some c -> c
          | None ->
            let c = Stripe_netsim.Rng.int !rng n in
            pending := Some c;
            c
        in
        let update ~size:_ = pending := None in
        (* The §5 reset point. Both halves matter: the receiver's replay
           restarts its draw index at 0, so the sender must reseed — and
           must also discard a draw cached by a [select] that never
           reached [update] (a packet selected but not yet dispatched
           when the barrier fired). Keeping that stale draw would make
           the first post-reset packet consume draw -1 while the
           receiver's simulation consumes draw 0: permanently offset,
           on any membership, n = 1 included. *)
        let reset () =
          rng := Stripe_netsim.Rng.create seed;
          pending := None
        in
        { select; update; reset });
  }

let load_share cfq packets =
  let inst = cfq.fresh () in
  List.map
    (fun (size, payload) ->
      let c = inst.select () in
      inst.update ~size;
      (c, (size, payload)))
    packets

let outputs_by_channel ~n dispatch =
  let rev = Array.make n [] in
  List.iter (fun (c, p) -> rev.(c) <- p :: rev.(c)) dispatch;
  Array.map List.rev rev

let fair_queue cfq queues =
  let remaining = Array.map (fun q -> ref q) queues in
  let inst = cfq.fresh () in
  let total = Array.fold_left (fun acc q -> acc + List.length !q) 0 remaining in
  let rec loop acc k =
    if k = total then Some (List.rev acc)
    else
      let c = inst.select () in
      match !(remaining.(c)) with
      | [] -> None
      | ((size, _) as p) :: rest ->
        remaining.(c) := rest;
        inst.update ~size;
        loop ((c, p) :: acc) (k + 1)
  in
  loop [] 0
