-- Generated by qosalloc rtlgen.  Do not edit.
-- Word-serial most-similar retrieval unit (Ullmann/Jin/Becker, DATE).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package qos_retrieval_pkg is
  constant WORD_BITS  : integer := 16;
  constant ADDR_BITS  : integer := 16;
  constant END_MARKER : unsigned(WORD_BITS - 1 downto 0) := x"ffff";
  constant Q15_ONE    : unsigned(WORD_BITS downto 0) := '0' & x"8000";
  subtype word_t is unsigned(WORD_BITS - 1 downto 0);
  subtype addr_t is unsigned(ADDR_BITS - 1 downto 0);
end package qos_retrieval_pkg;
-- Generated by qosalloc rtlgen.  Do not edit.
-- Word-serial most-similar retrieval unit (Ullmann/Jin/Becker, DATE).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.qos_retrieval_pkg.all;

entity qos_retrieval_unit is
  generic (
    SUPP_BASE : integer;       -- supplemental list base in CB-MEM
    REQ_BASE  : integer := 0;  -- request list base in Req-MEM
    TREE_BASE : integer := 0   -- type directory base in CB-MEM
  );
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    start      : in  std_logic;
    cb_addr    : out addr_t;
    cb_q       : in  word_t;
    req_addr   : out addr_t;
    req_q      : in  word_t;
    done       : out std_logic;
    not_found  : out std_logic;  -- requested type absent / no variants
    best_id    : out word_t;
    best_score : out word_t
  );
end entity qos_retrieval_unit;

architecture rtl of qos_retrieval_unit is
  type state_t is (
    st_idle, st_fetch_type, st_scan_type, st_type_ptr, st_impl_id,
    st_impl_ptr, st_req_id, st_req_val, st_req_w, st_supp_scan,
    st_supp_recip, st_attr_scan, st_attr_val, st_abs, st_mul_recip,
    st_complement, st_local_zero, st_accum_mul, st_accum_add,
    st_compare, st_done, st_error
  );
  signal state      : state_t := st_idle;

  signal rtype      : word_t := (others => '0');
  signal tid        : word_t := (others => '0');  -- type-list entry under test
  signal cur        : addr_t := (others => '0');  -- level-0 cursor
  signal lcur       : addr_t := (others => '0');  -- level-1 cursor
  signal apos       : addr_t := (others => '0');  -- level-2 cursor
  signal spos       : addr_t := (others => '0');  -- supplemental cursor
  signal rpos       : addr_t := (others => '0');  -- request cursor
  signal impl_id_r  : word_t := (others => '0');
  signal aid        : word_t := (others => '0');
  signal rvalue     : word_t := (others => '0');
  signal weight     : word_t := (others => '0');
  signal recip      : word_t := (others => '0');
  signal cbval      : word_t := (others => '0');
  signal diff       : word_t := (others => '0');
  signal local_s    : word_t := (others => '0');
  signal prodr      : unsigned(16 downto 0) := (others => '0');  -- clamped d * recip
  signal acc        : unsigned(16 downto 0) := (others => '0');
  signal smax       : word_t := (others => '0');
  signal smax_valid : std_logic := '0';
  signal supp_miss  : std_logic := '0';  -- attribute absent from the supplemental list
  signal best_id_r  : word_t := (others => '0');
begin
  best_id    <= best_id_r;
  best_score <= smax;
  done       <= '1' when state = st_done or state = st_error else '0';
  not_found  <= '1' when state = st_error else '0';

  with state select cb_addr <=
    cur             when st_scan_type,
    cur + 1         when st_type_ptr,
    lcur            when st_impl_id,
    lcur + 1        when st_impl_ptr,
    spos            when st_supp_scan,
    spos + 3        when st_supp_recip,
    apos            when st_attr_scan,
    apos + 1        when st_attr_val,
    (others => '0') when others;

  with state select req_addr <=
    to_unsigned(REQ_BASE, ADDR_BITS) when st_fetch_type,
    rpos                             when st_req_id,
    rpos + 1                         when st_req_val,
    rpos + 2                         when st_req_w,
    (others => '0')                  when others;

  fsm : process (clk)
    variable prod    : unsigned(31 downto 0);
    variable wprod   : unsigned(31 downto 0);
    variable rounded : unsigned(16 downto 0);
    variable summed  : unsigned(17 downto 0);
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state      <= st_idle;
        smax_valid <= '0';
      else
        case state is
          when st_idle =>
            if start = '1' then
              state <= st_fetch_type;
            end if;

          when st_fetch_type =>
            rtype <= req_q;
            cur   <= to_unsigned(TREE_BASE, ADDR_BITS);
            state <= st_scan_type;

          when st_scan_type =>
            tid   <= cb_q;
            state <= st_type_ptr;

          when st_type_ptr =>
            if tid = END_MARKER then
              state <= st_error;
            elsif tid = rtype then
              lcur       <= cb_q(ADDR_BITS - 1 downto 0);
              smax_valid <= '0';
              smax       <= (others => '0');
              best_id_r  <= (others => '0');
              state      <= st_impl_id;
            else
              cur   <= cur + 2;
              state <= st_scan_type;
            end if;

          when st_impl_id =>
            impl_id_r <= cb_q;
            state     <= st_impl_ptr;

          when st_impl_ptr =>
            if impl_id_r = END_MARKER then
              if smax_valid = '1' then
                state <= st_done;
              else
                state <= st_error;
              end if;
            else
              apos  <= cb_q(ADDR_BITS - 1 downto 0);
              spos  <= to_unsigned(SUPP_BASE, ADDR_BITS);
              acc   <= (others => '0');
              rpos  <= to_unsigned(REQ_BASE + 1, ADDR_BITS);
              state <= st_req_id;
            end if;

          when st_req_id =>
            if req_q = END_MARKER then
              state <= st_compare;
            else
              aid   <= req_q;
              state <= st_req_val;
            end if;

          when st_req_val =>
            rvalue <= req_q;
            state  <= st_req_w;

          when st_req_w =>
            weight    <= req_q;
            supp_miss <= '0';
            state     <= st_supp_scan;

          when st_supp_scan =>
            if cb_q = END_MARKER or cb_q > aid then
              supp_miss <= '1';
              state     <= st_attr_scan;
            elsif cb_q = aid then
              state <= st_supp_recip;
            else
              spos <= spos + 4;
            end if;

          when st_supp_recip =>
            recip <= cb_q;
            spos  <= spos + 4;
            state <= st_attr_scan;

          when st_attr_scan =>
            if cb_q = END_MARKER or cb_q > aid then
              state <= st_local_zero;
            elsif cb_q = aid then
              state <= st_attr_val;
            else
              apos <= apos + 2;
            end if;

          when st_attr_val =>
            cbval <= cb_q;
            apos  <= apos + 2;
            if supp_miss = '1' then
              state <= st_local_zero;
            else
              state <= st_abs;
            end if;

          when st_abs =>
            if rvalue >= cbval then
              diff <= rvalue - cbval;
            else
              diff <= cbval - rvalue;
            end if;
            state <= st_mul_recip;

          when st_mul_recip =>
            prod  := diff * recip;
            if prod >= Q15_ONE then
              prodr <= Q15_ONE;
            else
              prodr <= prod(16 downto 0);
            end if;
            state <= st_complement;

          when st_complement =>
            local_s <= resize(Q15_ONE - prodr, WORD_BITS);
            state   <= st_accum_mul;

          when st_local_zero =>
            local_s <= (others => '0');
            state   <= st_accum_mul;

          when st_accum_mul =>
            wprod   := local_s * weight;
            rounded := resize((wprod + 16384) srl 15, 17);
            if rounded > 65535 then
              rounded := to_unsigned(65535, 17);
            end if;
            diff    <= rounded(15 downto 0);
            state   <= st_accum_add;

          when st_accum_add =>
            summed := resize(acc, 18) + resize(diff, 18);
            if summed > 65535 then
              acc <= to_unsigned(65535, 17);
            else
              acc <= summed(16 downto 0);
            end if;
            rpos   <= rpos + 3;
            state  <= st_req_id;

          when st_compare =>
            if smax_valid = '0' or acc(15 downto 0) > smax then
              smax      <= acc(15 downto 0);
              best_id_r <= impl_id_r;
            end if;
            smax_valid <= '1';
            lcur       <= lcur + 2;
            state      <= st_impl_id;

          when st_done =>
            null;

          when st_error =>
            null;
        end case;
      end if;
    end if;
  end process fsm;
end architecture rtl;
-- Generated by qosalloc rtlgen.  Do not edit.
-- Word-serial most-similar retrieval unit (Ullmann/Jin/Becker, DATE).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.qos_retrieval_pkg.all;

entity qos_cb_rom is
  port (
    addr : in  addr_t;
    q    : out word_t
  );
end entity qos_cb_rom;

architecture rom of qos_cb_rom is
  type rom_t is array (0 to 74) of word_t;
  constant CONTENT : rom_t := (
    0 => x"0001",
    1 => x"0005",
    2 => x"0002",
    3 => x"000c",
    4 => x"ffff",
    5 => x"0001",
    6 => x"0011",
    7 => x"0002",
    8 => x"001a",
    9 => x"0003",
    10 => x"0023",
    11 => x"ffff",
    12 => x"0001",
    13 => x"002c",
    14 => x"0002",
    15 => x"0033",
    16 => x"ffff",
    17 => x"0001",
    18 => x"0010",
    19 => x"0002",
    20 => x"0000",
    21 => x"0003",
    22 => x"0002",
    23 => x"0004",
    24 => x"002c",
    25 => x"ffff",
    26 => x"0001",
    27 => x"0010",
    28 => x"0002",
    29 => x"0000",
    30 => x"0003",
    31 => x"0001",
    32 => x"0004",
    33 => x"002c",
    34 => x"ffff",
    35 => x"0001",
    36 => x"0008",
    37 => x"0002",
    38 => x"0000",
    39 => x"0003",
    40 => x"0000",
    41 => x"0004",
    42 => x"0016",
    43 => x"ffff",
    44 => x"0001",
    45 => x"0010",
    46 => x"0002",
    47 => x"0000",
    48 => x"0004",
    49 => x"002c",
    50 => x"ffff",
    51 => x"0001",
    52 => x"0010",
    53 => x"0002",
    54 => x"0001",
    55 => x"0004",
    56 => x"0016",
    57 => x"ffff",
    58 => x"0001",
    59 => x"0008",
    60 => x"0010",
    61 => x"0e39",
    62 => x"0002",
    63 => x"0000",
    64 => x"0001",
    65 => x"4000",
    66 => x"0003",
    67 => x"0000",
    68 => x"0002",
    69 => x"2aab",
    70 => x"0004",
    71 => x"0008",
    72 => x"002c",
    73 => x"0376",
    74 => x"ffff"
  );
begin
  q <= CONTENT(to_integer(addr)) when to_integer(addr) <= 74
       else END_MARKER;
end architecture rom;
-- Generated by qosalloc rtlgen.  Do not edit.
-- Word-serial most-similar retrieval unit (Ullmann/Jin/Becker, DATE).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.qos_retrieval_pkg.all;

entity qos_req_rom is
  port (
    addr : in  addr_t;
    q    : out word_t
  );
end entity qos_req_rom;

architecture rom of qos_req_rom is
  type rom_t is array (0 to 10) of word_t;
  constant CONTENT : rom_t := (
    0 => x"0001",
    1 => x"0001",
    2 => x"0010",
    3 => x"2aab",
    4 => x"0003",
    5 => x"0001",
    6 => x"2aab",
    7 => x"0004",
    8 => x"0028",
    9 => x"2aab",
    10 => x"ffff"
  );
begin
  q <= CONTENT(to_integer(addr)) when to_integer(addr) <= 10
       else END_MARKER;
end architecture rom;
-- Generated by qosalloc rtlgen.  Do not edit.
-- Word-serial most-similar retrieval unit (Ullmann/Jin/Becker, DATE).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.qos_retrieval_pkg.all;

entity qos_retrieval_tb is
end entity qos_retrieval_tb;

architecture tb of qos_retrieval_tb is
  constant EXPECTED_ID    : integer := 2;
  constant EXPECTED_SCORE : integer := 31588;  -- raw Q15

  signal clk        : std_logic := '0';
  signal rst        : std_logic := '1';
  signal start      : std_logic := '0';
  signal cb_addr    : addr_t;
  signal cb_q       : word_t;
  signal req_addr   : addr_t;
  signal req_q      : word_t;
  signal done       : std_logic;
  signal not_found  : std_logic;
  signal best_id    : word_t;
  signal best_score : word_t;
  signal finished   : boolean := false;
begin
  clk <= not clk after 5 ns when not finished else '0';

  cb_mem : entity work.qos_cb_rom
    port map (addr => cb_addr, q => cb_q);
  req_mem : entity work.qos_req_rom
    port map (addr => req_addr, q => req_q);

  dut : entity work.qos_retrieval_unit
    generic map (SUPP_BASE => 58, REQ_BASE => 0)
    port map (
      clk => clk, rst => rst, start => start,
      cb_addr => cb_addr, cb_q => cb_q,
      req_addr => req_addr, req_q => req_q,
      done => done, not_found => not_found,
      best_id => best_id, best_score => best_score);

  stimulus : process
  begin
    wait for 20 ns;
    rst   <= '0';
    start <= '1';
    wait until done = '1' for 1 ms;
    assert done = '1'
      report "retrieval did not finish" severity failure;
    assert not_found = '0'
      report "retrieval reported type-not-found" severity failure;
    assert to_integer(best_id) = EXPECTED_ID
      report "wrong implementation id" severity failure;
    assert to_integer(best_score) = EXPECTED_SCORE
      report "wrong Q15 score" severity failure;
    report "qos_retrieval_tb: PASS" severity note;
    finished <= true;
    wait;
  end process stimulus;
end architecture tb;
