let of_string s =
  let acc = ref [] in
  String.iter
    (fun c ->
      let b = Char.code c in
      for i = 7 downto 0 do
        acc := (b land (1 lsl i) <> 0) :: !acc
      done)
    s;
  List.rev !acc

let to_string bits =
  let n = List.length bits in
  if n mod 8 <> 0 then invalid_arg "Bits.to_string: length not a multiple of 8";
  let buf = Buffer.create (n / 8) in
  let rec take8 = function
    | b7 :: b6 :: b5 :: b4 :: b3 :: b2 :: b1 :: b0 :: rest ->
      let bit i b = if b then 1 lsl i else 0 in
      let byte =
        bit 7 b7 lor bit 6 b6 lor bit 5 b5 lor bit 4 b4
        lor bit 3 b3 lor bit 2 b2 lor bit 1 b1 lor bit 0 b0
      in
      Buffer.add_char buf (Char.chr byte);
      take8 rest
    | [] -> ()
    | _ -> assert false
  in
  take8 bits;
  Buffer.contents buf

let random prng n = List.init n (fun _ -> Prng.bool prng)

let hamming a b =
  let rec go acc a b =
    match (a, b) with
    | [], [] -> acc
    | x :: xs, y :: ys -> go (if x = y then acc else acc + 1) xs ys
    | rest, [] | [], rest -> acc + List.length rest
  in
  go 0 a b

let accuracy expected got =
  let n = List.length expected in
  if n = 0 then 1.0
  else begin
    let errors = hamming expected got in
    let errors = min errors n in
    float_of_int (n - errors) /. float_of_int n
  end
