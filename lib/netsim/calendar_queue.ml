(* Calendar queue (R. Brown, CACM 1988): a hashed ring of time-sorted
   buckets, O(1) amortized add/pop for the event populations simulations
   generate — many events clustered a bounded distance into the future
   (link serializations, propagation delays, pacing timers).

   An event at time [t] lives in bucket [floor (t / width) mod nbuckets].
   Popping scans the ring from the current virtual bucket [gidx]
   (= floor (scan time / width)): a bucket's minimum fires only if its
   own virtual bucket index is at or before the scan's
   ([vbucket t <= gidx], the float-exact form of "inside the current
   year slice"); otherwise the event belongs to a later lap around the
   ring and the scan moves on. A full fruitless rotation
   (all events far in the future) falls back to a direct minimum search
   that repositions the scan — correctness never depends on the width
   heuristics.

   Storage is Brown's linked-list layout over one node slab: every event
   is a node of the parallel arrays [times] (unboxed), [seqs], [vals] and
   [next], and each bucket is a singly linked list threaded through
   [next], sorted ascending by (time, seq) so the earliest entry pops off
   the head in O(1). Free nodes form a list through the same [next]
   array. The slab doubles like {!Eventq}'s arrays and is never shrunk;
   the bucket-head array is kept at its high-water length; the width
   sample is a preallocated float array sorted in place. A resize
   re-links the existing nodes, so once the slab and head array have
   reached their high water the add/pop cycle — resizes included —
   allocates nothing.

   The calendar doubles when occupancy exceeds two entries per bucket
   and halves below one per two buckets, re-deriving the bucket width
   from the live event population each time.

   Determinism contract (checked against {!Eventq} by property test):
   same-time events pop in insertion order. Equal times always hash to
   the same bucket, so the global (time, seq) order reduces to the
   intra-bucket sort. *)

type 'a t = {
  mutable nbuckets : int;  (* power of two, <= Array.length heads *)
  mutable mask : int;
  width : float array;
      (* Single-cell unboxed store for the bucket width: assigning a
         mutable float field of a mixed record boxes, a float-array
         store does not. *)
  mutable heads : int array;  (* first node of each bucket, -1 = empty *)
  mutable counts : int array;  (* nodes per bucket *)
  (* Node slab. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable next : int array;  (* bucket successor, or free-list successor *)
  mutable free : int;  (* free-list head, -1 = slab full *)
  sample : float array;  (* width-derivation scratch, see [resize] *)
  mutable size : int;
  mutable next_seq : int;
  mutable overload_stamp : int;
      (* Population size at the last overload-triggered re-derivation
         (see [add]); gates the next one behind a population doubling so
         degenerate populations (all events simultaneous) cannot thrash
         O(n) rehashes on every insert. *)
  mutable gidx : int;
      (* Virtual bucket index of the pop scan: bucket [gidx land mask],
         year bound [(gidx + 1) * width]. Meaningful only when
         [positioned]. *)
  mutable positioned : bool;
      (* False when the scan must re-find the global minimum before the
         next pop: after a clear/resize, when the queue was empty, or
         when an insertion landed before the scan's current year. *)
}

let dummy : unit -> 'a = fun () -> Obj.magic ()

let initial_buckets = 16

let sample_size = 256

let create () =
  {
    nbuckets = initial_buckets;
    mask = initial_buckets - 1;
    width = [| 1.0 |];
    heads = Array.make initial_buckets (-1);
    counts = Array.make initial_buckets 0;
    times = [||];
    seqs = [||];
    vals = [||];
    next = [||];
    free = -1;
    sample = Array.make sample_size 0.0;
    size = 0;
    next_seq = 0;
    overload_stamp = 0;
    gidx = 0;
    positioned = false;
  }

let is_empty q = q.size = 0

let length q = q.size

(* Virtual (unwrapped) bucket index of time [t]. The width floor chosen
   at resize keeps [t /. width] well below 2^52, so the floor is exact
   and the year arithmetic in [pop] cannot misplace an event. *)
let[@inline] vbucket q t = int_of_float (t /. q.width.(0))

(* --- node slab -------------------------------------------------------- *)

(* Double the slab (as {!Eventq} grows its arrays) and thread the new
   nodes onto the free list. Only called with the free list empty. *)
let grow q =
  let cap = Array.length q.vals in
  let ncap = max 16 (2 * cap) in
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  let vals = Array.make ncap (dummy ()) in
  let next = Array.init ncap (fun i -> if i + 1 < ncap then i + 1 else -1) in
  Array.blit q.times 0 times 0 cap;
  Array.blit q.seqs 0 seqs 0 cap;
  Array.blit q.vals 0 vals 0 cap;
  Array.blit q.next 0 next 0 cap;
  q.times <- times;
  q.seqs <- seqs;
  q.vals <- vals;
  q.next <- next;
  q.free <- cap

(* Node [i] fires before node [j]: (time, seq) order. *)
let[@inline] precedes q i j =
  q.times.(i) < q.times.(j)
  || (q.times.(i) = q.times.(j) && q.seqs.(i) < q.seqs.(j))

(* Link node [n] into bucket [b], keeping the list ascending. *)
let link q b n =
  let h = q.heads.(b) in
  if h < 0 || precedes q n h then begin
    q.next.(n) <- h;
    q.heads.(b) <- n
  end
  else begin
    let p = ref h in
    while q.next.(!p) >= 0 && not (precedes q n q.next.(!p)) do
      p := q.next.(!p)
    done;
    q.next.(n) <- q.next.(!p);
    q.next.(!p) <- n
  end;
  q.counts.(b) <- q.counts.(b) + 1

(* Unlink the head of (non-empty) bucket [b], return its node to the
   free list and its value to the caller. The node's value slot is reset
   so a free node never keeps a popped value reachable. *)
let take_head q b =
  let n = q.heads.(b) in
  q.heads.(b) <- q.next.(n);
  q.counts.(b) <- q.counts.(b) - 1;
  let v = q.vals.(n) in
  q.vals.(n) <- dummy ();
  q.next.(n) <- q.free;
  q.free <- n;
  q.size <- q.size - 1;
  v

(* --- sizing ----------------------------------------------------------- *)

(* In-place insertion sort of [a.(0 .. n-1)]; monomorphic so no float is
   boxed. [n] is at most [sample_size]. *)
let sort_prefix (a : float array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Re-derive the bucket width from the live population: ~3 mean
   inter-event gaps per bucket, where the mean gap is measured over the
   densest leading quantile of a sorted time sample rather than the full
   [tmin, tmax] span. The classic span rule (3 * span / size, Brown
   1988) assumes a roughly unimodal population; a churned fleet instead
   holds a dense cluster of imminent wire events plus a long sparse tail
   of lifetime timers spread over seconds, and a span-derived width
   lumps the whole cluster into one or two buckets — every insert then
   pays an O(cluster) list walk, which is the 2x calendar-vs-heap churn
   regression. The first quantile probe (q25, then q50/q75/q100 for
   degenerate prefixes) measures the gap scale where the pop scan
   actually works; for unimodal populations the q100 fallback reduces
   exactly to the classic rule. Clamped so [t / width] stays exactly
   representable (<= 2^40) for every queued time. Fully degenerate
   populations (all events simultaneous) keep the previous width —
   bucketing quality is then irrelevant anyway. Reads the sorted sample
   [q.sample.(0 .. n-1)]. *)
let[@inline] derive_width q ~tmin ~tmax ~n =
  if tmax > tmin && q.size > 1 && n > 1 then begin
    let k = ref 1 in
    while !k <= 4 do
      let extent = q.sample.((n - 1) * !k / 4) -. tmin in
      if extent > 0.0 then begin
        (* ~k/4 of the population lies within [extent] of the head, so
           the head-region mean gap is extent / (k/4 * size). *)
        q.width.(0) <-
          3.0 *. extent /. (float_of_int !k /. 4.0 *. float_of_int q.size);
        k := 5
      end
      else incr k
    done
  end;
  let floor_w = Float.max 1e-12 (Float.max tmax (-.tmin) /. 1.099511627776e12)
  (* 2^40 *) in
  if q.width.(0) < floor_w then q.width.(0) <- floor_w

let resize q nbuckets' =
  (* Pass 1: population bounds, a deterministic stride sample (at most
     [sample_size] times) for the quantile width derivation, and every
     node unthreaded onto one chain. Pushing onto the chain reverses
     each bucket's run, so pass 2 re-links a run in descending order and
     each node usually lands at its new bucket's head. *)
  let tmin = ref infinity and tmax = ref neg_infinity in
  let stride = 1 + (q.size / sample_size) in
  let si = ref 0 and seen = ref 0 in
  let chain = ref (-1) in
  for b = 0 to q.nbuckets - 1 do
    let n = ref q.heads.(b) in
    while !n >= 0 do
      let nx = q.next.(!n) in
      let t = q.times.(!n) in
      if t < !tmin then tmin := t;
      if t > !tmax then tmax := t;
      if !seen mod stride = 0 && !si < sample_size then begin
        q.sample.(!si) <- t;
        incr si
      end;
      incr seen;
      q.next.(!n) <- !chain;
      chain := !n;
      n := nx
    done
  done;
  sort_prefix q.sample !si;
  derive_width q ~tmin:!tmin ~tmax:!tmax ~n:!si;
  if Array.length q.heads < nbuckets' then begin
    q.heads <- Array.make nbuckets' (-1);
    q.counts <- Array.make nbuckets' 0
  end
  else begin
    Array.fill q.heads 0 nbuckets' (-1);
    Array.fill q.counts 0 nbuckets' 0
  end;
  q.nbuckets <- nbuckets';
  q.mask <- nbuckets' - 1;
  (* Pass 2: re-link every node under the new geometry. *)
  while !chain >= 0 do
    let n = !chain in
    chain := q.next.(n);
    link q (vbucket q q.times.(n) land q.mask) n
  done;
  q.positioned <- false

(* --- main operations -------------------------------------------------- *)

let[@inline] add q ~time value =
  if q.free < 0 then grow q;
  let n = q.free in
  q.free <- q.next.(n);
  q.times.(n) <- time;
  q.seqs.(n) <- q.next_seq;
  q.vals.(n) <- value;
  q.next_seq <- q.next_seq + 1;
  let vb = vbucket q time in
  let b = vb land q.mask in
  link q b n;
  q.size <- q.size + 1;
  (* An event landing before the scan's current year start would be
     passed over by the year check: force a re-position. *)
  if q.positioned && vb < q.gidx then q.positioned <- false;
  if q.size > 2 * q.nbuckets then resize q (2 * q.nbuckets)
  else if q.counts.(b) >= 48 && q.size >= 2 * q.overload_stamp then begin
    (* Overload guard: a single bucket 24x over the two-per-bucket
       occupancy target means the event-time distribution drifted since
       the width was last derived (resizes only fire on population
       growth, not distribution change). Rehash at the same bucket count
       to re-derive; the [overload_stamp] doubling gate bounds the cost
       to O(n) amortized even when re-deriving cannot help. *)
    q.overload_stamp <- q.size;
    resize q q.nbuckets
  end

(* Point the scan at the bucket holding the global minimum. The queue
   must be non-empty. Equal minimum times share a bucket, so comparing
   bucket heads suffices; the intra-bucket order settles seq ties. *)
let reposition q =
  let best = ref (-1) in
  for b = 0 to q.nbuckets - 1 do
    let h = q.heads.(b) in
    if h >= 0 && (!best < 0 || q.times.(h) < q.times.(!best)) then best := h
  done;
  (* Rebase the virtual index on the minimum's own year so the year
     bounds line up with bucket contents again. *)
  q.gidx <- vbucket q q.times.(!best);
  q.positioned <- true

let peek_loop q =
  (* Find the bucket whose head fires next; returns the bucket index and
     leaves the scan positioned on it. The queue must be non-empty. *)
  if not q.positioned then reposition q;
  let result = ref (-1) in
  let steps = ref 0 in
  while !result < 0 do
    let b = q.gidx land q.mask in
    let h = q.heads.(b) in
    (* The head fires iff its own virtual bucket is the scan's (or an
       earlier one). Deciding with [vbucket] — the same truncated
       division that placed the event — keeps placement and firing
       exactly consistent; the once-obvious bound
       [t < (gidx + 1) * width] is NOT equivalent in floats: the
       multiplication can round below [t] for an event whose division
       truncated to [gidx], making the scan reject the true minimum as
       next-lap and fire a slightly later event from the next virtual
       bucket instead. *)
    if h >= 0 && vbucket q q.times.(h) <= q.gidx then result := b
    else if !steps >= q.nbuckets then begin
      (* Full fruitless rotation: everything lives in later years. Jump
         straight to the global minimum. *)
      reposition q;
      result := q.gidx land q.mask
    end
    else begin
      q.gidx <- q.gidx + 1;
      incr steps
    end
  done;
  !result

let peek_time q =
  if q.size = 0 then None else Some q.times.(q.heads.(peek_loop q))

let[@inline] peek_time_unsafe q = q.times.(q.heads.(peek_loop q))

let maybe_shrink q =
  if q.nbuckets > initial_buckets && 2 * q.size < q.nbuckets then
    resize q (q.nbuckets / 2)

let after_take q =
  if q.size = 0 then q.positioned <- false else maybe_shrink q

let pop q =
  if q.size = 0 then None
  else begin
    let b = peek_loop q in
    let time = q.times.(q.heads.(b)) in
    let v = take_head q b in
    after_take q;
    Some (time, v)
  end

let pop_exn q =
  if q.size = 0 then invalid_arg "Calendar_queue.pop_exn: empty queue";
  let v = take_head q (peek_loop q) in
  after_take q;
  v

let clear q =
  q.nbuckets <- initial_buckets;
  q.mask <- initial_buckets - 1;
  q.width.(0) <- 1.0;
  Array.fill q.heads 0 (Array.length q.heads) (-1);
  Array.fill q.counts 0 (Array.length q.counts) 0;
  q.times <- [||];
  q.seqs <- [||];
  q.vals <- [||];
  q.next <- [||];
  q.free <- -1;
  q.size <- 0;
  q.gidx <- 0;
  q.positioned <- false
