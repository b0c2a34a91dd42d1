let words_of_string s =
  let len = String.length s in
  let nwords = (len + 7) / 8 in
  let out = Array.make (1 + nwords) 0L in
  out.(0) <- Int64.of_int len;
  for i = 0 to len - 1 do
    let w = 1 + (i / 8) in
    let shift = 8 * (7 - (i mod 8)) in
    out.(w) <- Int64.logor out.(w) (Int64.shift_left (Int64.of_int (Char.code s.[i])) shift)
  done;
  out

let string_of_words words =
  if Array.length words = 0 then None
  else begin
    let len = Int64.to_int words.(0) in
    let nwords = (len + 7) / 8 in
    if len < 0 || Array.length words < 1 + nwords then None
    else begin
      let buf = Bytes.create len in
      for i = 0 to len - 1 do
        let w = 1 + (i / 8) in
        let shift = 8 * (7 - (i mod 8)) in
        let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical words.(w) shift) 0xFFL) in
        Bytes.set buf i (Char.chr byte)
      done;
      Some (Bytes.to_string buf)
    end
  end
