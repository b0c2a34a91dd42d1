(* Elements are stored with a monotonically increasing sequence number so
   that equal keys pop in insertion order. *)

type 'a entry = { value : 'a; seq : int }

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let entry_cmp t a b =
  let c = t.cmp a.value b.value in
  if c <> 0 then c else compare a.seq b.seq

let grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else 2 * cap in
  (* Dummy slot content is never read past [size]. *)
  let fresh = Array.make ncap t.data.(0) in
  Array.blit t.data 0 fresh 0 t.size;
  t.data <- fresh

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_cmp t t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_cmp t t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && entry_cmp t t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t v =
  let e = { value = v; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then
    if t.size = 0 then t.data <- Array.make 16 e else grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top.value
  end

let peek t = if t.size = 0 then None else Some t.data.(0).value
