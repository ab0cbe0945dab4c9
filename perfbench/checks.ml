(* Output checks.

   A run is correct only if every check here passes; a failure is a
   message naming the workload, the seed and what broke. *)

(* Packet fates on the single-bundle paths. Each data packet advances
   through the states below as the benchmark's callbacks see it; the
   state it ends in is its one drop cause (or [delivered]). The counts
   per cause are then compared with the counter the owning layer keeps,
   so a byte no layer accounts for fails the run. *)
module Ledger = struct
  let pushed = '\000'
  let emitted = '\001'
  let arrived = '\002'
  let forwarded = '\003'
  let delivered = '\004'

  type t = {
    state : Bytes.t;
    sizes : int array;
    mutable delivered_twice : int;
  }

  let create sizes =
    { state = Bytes.make (Array.length sizes) pushed; sizes; delivered_twice = 0 }

  (* Advance only: a duplicate copy arriving after its original was
     forwarded must not pull the packet back to an earlier state. *)
  let[@inline] mark t seq st =
    if seq >= 0 && Bytes.unsafe_get t.state seq < st then
      Bytes.unsafe_set t.state seq st

  let[@inline] deliver t seq =
    if Bytes.unsafe_get t.state seq = delivered then
      t.delivered_twice <- t.delivered_twice + 1
    else Bytes.unsafe_set t.state seq delivered

  (* (packets, bytes) that ended in each state. *)
  let tally t =
    let packets = Array.make 5 0 and bytes = Array.make 5 0 in
    Bytes.iteri
      (fun i c ->
        let s = Char.code c in
        packets.(s) <- packets.(s) + 1;
        bytes.(s) <- bytes.(s) + t.sizes.(i))
      t.state;
    (packets, bytes)
end

let fail failures fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let expect failures what ~got ~want =
  if got <> want then fail failures "%s: got %d, want %d" what got want

let expect_le failures what ~got ~bound =
  if got > bound then fail failures "%s: %d exceeds %d" what got bound

(* Deliveries whose sequence number is below the highest delivered so
   far. *)
let inversions order n =
  let hi = ref (-1) and inv = ref 0 in
  for i = 0 to n - 1 do
    let s = order.(i) in
    if s < !hi then incr inv else hi := s
  done;
  !inv

(* Byte conservation: pushed = delivered + still buffered + the drops,
   each drop named by its cause. *)
let conservation failures ~what ~pushed ~delivered ~pending ~drops =
  match
    Stripe_obs.Monitor.check_conservation ~what ~pushed ~delivered ~pending
      ~drops:(List.map snd drops)
  with
  | Ok () -> ()
  | Error e ->
    fail failures "%s (drops: %s)" e
      (String.concat ", "
         (List.map (fun (c, b) -> Printf.sprintf "%s=%d" c b) drops))

let verdict failures ~what (v : Stripe_obs.Monitor.verdict) =
  if v.violations > 0 then
    fail failures "%s: monitor reports %d violation(s)%s" what v.violations
      (match v.first_violation with
      | Some (t, d) -> Printf.sprintf ", first at %.6f s: %s" t d
      | None -> "")

(* Deterministic values must agree exactly between two runs. *)
let same_det failures ~what a b =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v -> ()
      | Some v' -> fail failures "%s: %s differs (%s vs %s)" what k v v'
      | None -> fail failures "%s: %s missing" what k)
    a
