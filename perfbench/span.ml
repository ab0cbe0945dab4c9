(* Layer spans for the traced run.

   The benchmark wraps each call it makes into a layer's public function
   in [enter]/[leave]. Layers call back into benchmark code ([emit], a
   link's [deliver], the resequencer's [deliver], the obs sink), and
   those callbacks open spans of their own, so spans nest on a stack and
   a layer's self time is its span minus the spans it caused.

   Probes read the clock through bechamel's monotonic-clock stub, declared
   here unboxed so a probe allocates nothing, and [Gc.minor_words] for
   allocation. The probe cost is calibrated at start-up and subtracted:
   [p_self] is what one span's own probes add inside its interval,
   [p_total] what a whole span adds to an enclosing one. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (clock_ns ())

type layer =
  | Sim
  | Striper
  | Link
  | Guard
  | Reseq
  | Health
  | Obs
  | Pool_push
  | Pool_acquire
  | Pool_release
  | Bench

let layers =
  [|
    Sim; Striper; Link; Guard; Reseq; Health; Obs; Pool_push; Pool_acquire;
    Pool_release; Bench;
  |]

let n_layers = Array.length layers

let index = function
  | Sim -> 0
  | Striper -> 1
  | Link -> 2
  | Guard -> 3
  | Reseq -> 4
  | Health -> 5
  | Obs -> 6
  | Pool_push -> 7
  | Pool_acquire -> 8
  | Pool_release -> 9
  | Bench -> 10

let name = function
  | Sim -> "sim"
  | Striper -> "striper"
  | Link -> "link"
  | Guard -> "guard"
  | Reseq -> "reseq"
  | Health -> "health"
  | Obs -> "obs"
  | Pool_push -> "pool.push"
  | Pool_acquire -> "pool.acquire"
  | Pool_release -> "pool.release"
  | Bench -> "bench"

let max_depth = 64
let st_layer = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Float.Array.make max_depth 0.0
let st_child_ns = Float.Array.make max_depth 0.0
let st_child_w = Float.Array.make max_depth 0.0
let st_desc = Array.make max_depth 0
let depth = ref 0
let self_ns = Float.Array.make n_layers 0.0
let self_w = Float.Array.make n_layers 0.0
let calls = Array.make n_layers 0
let spans = ref 0

(* Calibrated probe costs: ns and minor words. *)
let p_self_ns = Float.Array.make 1 0.0
let p_total_ns = Float.Array.make 1 0.0
let p_self_w = Float.Array.make 1 0.0
let p_total_w = Float.Array.make 1 0.0

let reset () =
  depth := 0;
  spans := 0;
  Float.Array.fill self_ns 0 n_layers 0.0;
  Float.Array.fill self_w 0 n_layers 0.0;
  Array.fill calls 0 n_layers 0

let enter layer =
  let d = !depth in
  st_layer.(d) <- index layer;
  Float.Array.unsafe_set st_child_ns d 0.0;
  Float.Array.unsafe_set st_child_w d 0.0;
  st_desc.(d) <- 0;
  depth := d + 1;
  Float.Array.unsafe_set st_w0 d (Gc.minor_words ());
  st_t0.(d) <- now_ns ()

let leave () =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let desc = float_of_int st_desc.(d) in
  let incl_ns =
    float_of_int (t1 - st_t0.(d))
    -. Float.Array.unsafe_get p_self_ns 0
    -. (desc *. Float.Array.unsafe_get p_total_ns 0)
  in
  let incl_w =
    w1 -. Float.Array.unsafe_get st_w0 d
    -. Float.Array.unsafe_get p_self_w 0
    -. (desc *. Float.Array.unsafe_get p_total_w 0)
  in
  let l = st_layer.(d) in
  Float.Array.unsafe_set self_ns l
    (Float.Array.unsafe_get self_ns l
    +. incl_ns
    -. Float.Array.unsafe_get st_child_ns d);
  Float.Array.unsafe_set self_w l
    (Float.Array.unsafe_get self_w l +. incl_w -. Float.Array.unsafe_get st_child_w d);
  calls.(l) <- calls.(l) + 1;
  incr spans;
  if d > 0 then begin
    let p = d - 1 in
    Float.Array.unsafe_set st_child_ns p (Float.Array.unsafe_get st_child_ns p +. incl_ns);
    Float.Array.unsafe_set st_child_w p (Float.Array.unsafe_get st_child_w p +. incl_w);
    st_desc.(p) <- st_desc.(p) + st_desc.(d) + 1
  end

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Calibrate with the correction off: an empty span's raw self time is
   [p_self]; an outer span around [n] empty spans measures
   [p_self + n * p_total]. Median of several rounds. *)
let calibrate () =
  Float.Array.fill p_self_ns 0 1 0.0;
  Float.Array.fill p_total_ns 0 1 0.0;
  Float.Array.fill p_self_w 0 1 0.0;
  Float.Array.fill p_total_w 0 1 0.0;
  let n = 20_000 and rounds = 9 in
  let b = index Bench in
  let selfs = Array.make rounds 0.0 and totals = Array.make rounds 0.0 in
  let selfs_w = Array.make rounds 0.0 and totals_w = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    reset ();
    for _ = 1 to n do
      enter Bench;
      leave ()
    done;
    let ps = Float.Array.get self_ns b /. float_of_int n in
    let psw = Float.Array.get self_w b /. float_of_int n in
    reset ();
    enter Sim;
    for _ = 1 to n do
      enter Bench;
      leave ()
    done;
    leave ();
    let outer = Float.Array.get self_ns (index Sim) +. Float.Array.get self_ns b in
    let outer_w = Float.Array.get self_w (index Sim) +. Float.Array.get self_w b in
    selfs.(r) <- ps;
    selfs_w.(r) <- psw;
    totals.(r) <- (outer -. ps) /. float_of_int n;
    totals_w.(r) <- (outer_w -. psw) /. float_of_int n
  done;
  Float.Array.set p_self_ns 0 (median selfs);
  Float.Array.set p_total_ns 0 (median totals);
  Float.Array.set p_self_w 0 (median selfs_w);
  Float.Array.set p_total_w 0 (median totals_w);
  reset ()

let probe_ns () = Float.Array.get p_total_ns 0
let probe_words () = Float.Array.get p_total_w 0
let self_ns_of l = Float.Array.get self_ns (index l)
let self_words_of l = Float.Array.get self_w (index l)
let calls_of l = calls.(index l)

(* Per-call averages, 0 when the layer never ran. *)
let ns_per_call l =
  let c = calls_of l in
  if c = 0 then 0.0 else self_ns_of l /. float_of_int c

let words_per_call l =
  let c = calls_of l in
  if c = 0 then 0.0 else self_words_of l /. float_of_int c
