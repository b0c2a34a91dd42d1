type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

(* splitmix64 finaliser: two xor-shift-multiply rounds.  Inlined so
   that [fill_bytes] keeps its words unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* The state lives in a local while the loop runs, so no draw is
   boxed; [t] is written once at the end. *)
let fill_bytes t b =
  let n = Bytes.length b in
  if n land 7 <> 0 then invalid_arg "Prng.fill_bytes: length not a multiple of 8";
  let state = ref t.state in
  let i = ref 0 in
  while !i < n do
    state := Int64.add !state golden_gamma;
    Bytes.set_int64_le b !i (mix !state);
    i := !i + 8
  done;
  t.state <- !state

(* Each draw adds [golden_gamma] to the state (mod 2^64), so [n] draws
   add [n * golden_gamma]. *)
let skip t n =
  if n < 0 then invalid_arg "Prng.skip: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden_gamma)

let split t =
  let seed = int64 t in
  (* A second mix with a different constant decorrelates the child
     stream from the parent's subsequent outputs. *)
  { state = mix (Int64.logxor seed 0xD1B54A32D192ED03L) }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits in a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  (* 53 random bits -> [0,1) with full double precision. *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.log u /. rate

let gaussian t ~mean ~stddev =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then 1e-300 else u1 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  (* Floyd's algorithm: O(k) expected, no O(n) allocation. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc
