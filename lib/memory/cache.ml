type config = {
  line_words : int;
  sets : int;
  ways : int;
  hit_cost : int;
  miss_cost : int;
}

let config_l1 = { line_words = 8; sets = 64; ways = 8; hit_cost = 1; miss_cost = 10 }
let config_l2 = { line_words = 8; sets = 512; ways = 8; hit_cost = 10; miss_cost = 30 }
let config_l3 = { line_words = 8; sets = 4096; ways = 16; hit_cost = 30; miss_cost = 150 }

(* Way [w] of set [s] is slot [s * ways + w] of two flat arrays: its tag
   (-1 = invalid) and its LRU stamp.  One extra slot at the end, the
   sentinel, holds tag [min_int] and is never written.  Both arrays are
   empty until the level's first [access], [slot_of] or [sentinel]
   makes them; until then every way is invalid with stamp 0.  [ways] is
   [cfg.ways] once they exist and 0 before, so a lookup in a level
   without them scans no slot: the hit path needs no check of its own,
   and only a miss asks whether the arrays exist. *)
type t = {
  cfg : config;
  next : t option;
  mutable tags : int array;
  mutable stamps : int array;
  mutable ways : int;
  line_shift : int; (* log2 line_words: per-access math without div *)
  set_mask : int;   (* sets - 1 *)
  sets_shift : int; (* log2 sets *)
  mutable clock : int;    (* LRU timestamp source *)
  mutable hits : int;
  mutable misses : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create cfg ~next =
  if not (is_power_of_two cfg.line_words && is_power_of_two cfg.sets) then
    invalid_arg "Cache.create: line_words and sets must be powers of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    cfg;
    next;
    tags = [||];
    stamps = [||];
    ways = 0;
    line_shift = log2 cfg.line_words;
    set_mask = cfg.sets - 1;
    sets_shift = log2 cfg.sets;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let config t = t.cfg

let make_arrays t =
  let slots = t.cfg.sets * t.cfg.ways in
  let tags = Array.make (slots + 1) (-1) in
  tags.(slots) <- min_int;
  t.tags <- tags;
  t.stamps <- Array.make (slots + 1) 0;
  t.ways <- t.cfg.ways

let sentinel t =
  if t.ways = 0 then make_arrays t;
  t.cfg.sets * t.cfg.ways

let line_of_addr t addr = addr lsr t.line_shift
let set_of_addr t addr = line_of_addr t addr land t.set_mask
let tag_of_addr t addr = line_of_addr t addr lsr t.sets_shift

(* First slot in [i, stop) holding [tag], or -1.  Top-level recursion
   (not a local closure, which the non-flambda compiler would
   heap-allocate per call) so the per-access walk allocates nothing —
   this runs on every simulated fetch and load.  The annotation keeps
   the compare an integer one: inferred polymorphic, it compiles to
   [caml_equal]. *)
let rec find_slot (tags : int array) tag i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = tag then i
  else find_slot tags tag (i + 1) stop

(* The set's slots are [base, base + ways); [set] is masked in-bounds. *)
let find t set tag =
  let base = set * t.ways in
  find_slot t.tags tag base (base + t.ways)

let slot_of t ~set ~tag =
  let sentinel = sentinel t in
  let i = find t set tag in
  if i >= 0 then i else sentinel

let rec access t ~addr =
  let set = set_of_addr t addr in
  let tag = tag_of_addr t addr in
  t.clock <- t.clock + 1;
  let ways = t.ways in
  let base = set * ways in
  let i = find_slot t.tags tag base (base + ways) in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set t.stamps i t.clock;
    t.cfg.hit_cost
  end
  else begin
    t.misses <- t.misses + 1;
    if ways = 0 then make_arrays t;
    let ways = t.ways in
    let base = set * ways in
    let tags = t.tags and stamps = t.stamps in
    (* Fill: evict the first LRU way.  An invalid way has stamp 0 and a
       valid one a stamp of at least 1, so that is the first invalid way
       when the set has one. *)
    let victim = ref base in
    for i = base + 1 to base + ways - 1 do
      if Array.unsafe_get stamps i < Array.unsafe_get stamps !victim then victim := i
    done;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set stamps !victim t.clock;
    let below =
      match t.next with
      | Some lower -> access lower ~addr
      | None -> 0
    in
    t.cfg.hit_cost + t.cfg.miss_cost + below
  end

let present t ~addr = find t (set_of_addr t addr) (tag_of_addr t addr) >= 0

let rec flush_line t ~addr =
  let i = find t (set_of_addr t addr) (tag_of_addr t addr) in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    t.stamps.(i) <- 0
  end;
  match t.next with
  | Some lower -> flush_line lower ~addr
  | None -> ()

(* A level without arrays has [ways = 0], so no slot to fill. *)
let rec flush_all t =
  let slots = t.cfg.sets * t.ways in
  Array.fill t.tags 0 slots (-1);
  Array.fill t.stamps 0 slots 0;
  match t.next with Some lower -> flush_all lower | None -> ()

let stats t = (t.hits, t.misses)

let occupancy t =
  let n = ref 0 in
  for i = 0 to (t.cfg.sets * t.ways) - 1 do
    if t.tags.(i) <> -1 then incr n
  done;
  !n
