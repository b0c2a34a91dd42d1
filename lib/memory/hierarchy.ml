type t = {
  l1 : Cache.t;  (* its [next] chain holds the L2 and the L3 *)
  dram : Dram.t;
  io : (int * Dram.t) option;
  io_base_addr : int; (* max_int when no IO region is attached *)
  io_dram : Dram.t;   (* = dram when no IO region is attached *)
  io_cost : int;
  mutable cycles : int;
  mutable last_cost : int;
}

let create ?(l1 = Cache.config_l1) ?io ~dram () =
  let l3c = Cache.create Cache.config_l3 ~next:None in
  let l2c = Cache.create Cache.config_l2 ~next:(Some l3c) in
  let l1c = Cache.create l1 ~next:(Some l2c) in
  let io_base_addr, io_dram =
    match io with Some (base, io_dram) -> (base, io_dram) | None -> (max_int, dram)
  in
  {
    l1 = l1c;
    dram;
    io;
    io_base_addr;
    io_dram;
    io_cost = 100;
    cycles = 0;
    last_cost = 0;
  }

let route t addr =
  match t.io with
  | Some (base, io_dram) when addr >= base -> `Io (io_dram, addr - base)
  | Some _ | None -> `Main

(* The hot fetch/load path.  [touch]/[read_value]/[write_value] never
   allocate: the IO split is two int comparisons, the cache walk is
   integer-only, and the returned word is the boxed value already living
   in the DRAM array. *)

let touch t ~addr =
  let c = if addr >= t.io_base_addr then t.io_cost else Cache.access t.l1 ~addr in
  t.cycles <- t.cycles + c;
  t.last_cost <- c;
  c

let read_value t ~addr =
  let c = if addr >= t.io_base_addr then t.io_cost else Cache.access t.l1 ~addr in
  t.cycles <- t.cycles + c;
  t.last_cost <- c;
  if addr >= t.io_base_addr then Dram.read t.io_dram (addr - t.io_base_addr)
  else Dram.read t.dram addr

let read_cost t = t.last_cost

let write t ~addr v =
  let c = touch t ~addr in
  if addr >= t.io_base_addr then Dram.write t.io_dram (addr - t.io_base_addr) v
  else Dram.write t.dram addr v;
  c

let flush_line t ~addr =
  match route t addr with
  | `Io _ -> () (* uncached: nothing to flush *)
  | `Main -> Cache.flush_line t.l1 ~addr

let flush_all t = Cache.flush_all t.l1

let l1 t = t.l1

let cycles_spent t = t.cycles
