(* Reference set-associative cache over one mutable record per way,
   for tests only: the library's flat tag and stamp arrays must give
   every return value, counter, LRU stamp and victim this code gives,
   access by access. *)

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

(* A way holds a tag and an LRU stamp; tag = -1 means invalid. *)
type way = { mutable tag : int; mutable stamp : int }

type t = {
  name : string;
  cfg : config;
  next : t option;
  ways : way array array; (* [set].[way] *)
  line_shift : int; (* log2 line_words: per-access math without div *)
  set_mask : int;   (* sets - 1 *)
  sets_shift : int; (* log2 sets *)
  mutable clock : int;    (* LRU timestamp source *)
  mutable hits : int;
  mutable misses : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ~name cfg ~next =
  if not (is_power_of_two cfg.line_words && is_power_of_two cfg.sets) then
    invalid_arg "Cache.create: line_words and sets must be powers of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    name;
    cfg;
    next;
    ways =
      Array.init cfg.sets (fun _ ->
          Array.init cfg.ways (fun _ -> { tag = -1; stamp = 0 }));
    line_shift = log2 cfg.line_words;
    set_mask = cfg.sets - 1;
    sets_shift = log2 cfg.sets;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let name t = t.name
let config t = t.cfg

let line_of_addr t addr = addr lsr t.line_shift
let set_of_addr t addr = line_of_addr t addr land t.set_mask
let tag_of_addr t addr = line_of_addr t addr lsr t.sets_shift

(* First way holding [tag], or -1.  Top-level recursion (not a local
   closure, which the non-flambda compiler would heap-allocate per call)
   so the per-access walk allocates nothing — this runs on every
   simulated fetch and load. *)
let rec find_way_from ways n tag i =
  if i >= n then -1
  else if (Array.unsafe_get ways i).tag = tag then i
  else find_way_from ways n tag (i + 1)

let find_way t set tag =
  let ways = t.ways.(set) in
  find_way_from ways (Array.length ways) tag 0

let way_of t ~set ~tag = find_way t set tag

let rec access t ~addr =
  let set = set_of_addr t addr in
  let tag = tag_of_addr t addr in
  t.clock <- t.clock + 1;
  let ways = Array.unsafe_get t.ways set (* set is masked in-bounds *) in
  let i = find_way_from ways (Array.length ways) tag 0 in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    (Array.unsafe_get ways i).stamp <- t.clock;
    t.cfg.hit_cost
  end
  else begin
    t.misses <- t.misses + 1;
    (* Fill: evict the LRU way. *)
    let victim = ref 0 in
    for i = 0 to Array.length ways - 1 do
      if ways.(i).stamp < ways.(!victim).stamp then victim := i
    done;
    (* Prefer an invalid way over evicting a valid line. *)
    for i = 0 to Array.length ways - 1 do
      if ways.(i).tag = -1 && ways.(!victim).tag <> -1 then victim := i
    done;
    ways.(!victim).tag <- tag;
    ways.(!victim).stamp <- t.clock;
    let below =
      match t.next with
      | Some lower -> access lower ~addr
      | None -> 0
    in
    t.cfg.hit_cost + t.cfg.miss_cost + below
  end

let present t ~addr =
  let set = set_of_addr t addr in
  find_way t set (tag_of_addr t addr) >= 0

let rec flush_line t ~addr =
  let set = set_of_addr t addr in
  let i = find_way t set (tag_of_addr t addr) in
  if i >= 0 then begin
    t.ways.(set).(i).tag <- -1;
    t.ways.(set).(i).stamp <- 0
  end;
  match t.next with
  | Some lower -> flush_line lower ~addr
  | None -> ()

let rec flush_all t =
  Array.iter
    (fun set ->
      Array.iter
        (fun w ->
          w.tag <- -1;
          w.stamp <- 0)
        set)
    t.ways;
  match t.next with Some lower -> flush_all lower | None -> ()

let stats t = (t.hits, t.misses)

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let occupancy t =
  let n = ref 0 in
  Array.iter (fun set -> Array.iter (fun w -> if w.tag <> -1 then incr n) set) t.ways;
  !n
